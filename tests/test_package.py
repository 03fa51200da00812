"""Every public name the package lists is importable and has a caller, as
has every public method and property of the classes it lists; every module
uses what it imports, every validated model class stores read-only copies of
its arrays through one shared base, every refusal is raised by the one shared
pass rule, importing the package loads none of its modules, and a subcommand
loads only the modules it runs.  No library code calls scipy: the one scipy
name left is contspace.cKDTree, a shim no library code calls that imports
scipy.spatial on its first call, so no recovery and no argv loads scipy."""

import ast
import dataclasses
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
import pytest

import isolab
from isolab import contspace, holodisc, metric, recovery
from isolab._frozen import Frozen, Refusal, store

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ("gauges", "metric", "recovery", "holodisc", "contspace")


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


# module -> the validated model classes that store read-only arrays through _frozen.Frozen
VALUE_CLASSES = {
    "metric": ("WeightSequence", "SeminormVector", "AtomicMeasure"),
    "recovery": ("LogMeasure",),
    "holodisc": ("TaylorFunction", "DiscExhaustion", "MatrixOperator"),
    "contspace": (
        "Exhaustion1D", "ExhaustionDisc", "_Grid", "IntervalGrid", "DiscGrid", "GridFunction",
        "PiecewiseLinearMap", "PiecewiseLinearHomeo", "AnnulusHomeo",
    ),
}


def _value_models() -> list:
    """(class, the caller's arguments) for every value class; array arguments are fresh."""
    grid = contspace.IntervalGrid(np.linspace(0.2, 0.8, 7))
    return [
        (metric.WeightSequence, (np.array([0.25, 0.75]),)),
        (metric.SeminormVector, (np.array([1.0, 2.0]),)),
        (metric.AtomicMeasure, (np.array([1.0, 2.0]), np.array([0.25, 0.5]))),
        (recovery.LogMeasure, (np.array([-1.0, 1.0]), np.array([0.25, 0.5]))),
        (holodisc.TaylorFunction, (np.array([1.0, 2.0j]),)),
        (holodisc.DiscExhaustion, (np.array([0.5, 0.75]),)),
        (holodisc.MatrixOperator, (np.array([[1.0, 2.0], [3.0, 4.0j]]),)),
        (contspace.Exhaustion1D, (np.array([[0.4, 0.6], [0.2, 0.8]]),)),
        (contspace.ExhaustionDisc, (np.array([0.25, 0.8]),)),
        (contspace.IntervalGrid, (np.linspace(0.2, 0.8, 7),)),
        (contspace.DiscGrid, (np.linspace(0.0, 0.8, 5), 16)),
        (contspace.GridFunction, (grid, np.arange(7) + 1j)),
        (contspace.PiecewiseLinearMap, (np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0, 0.0]))),
        (contspace.PiecewiseLinearHomeo, (np.array([0.0, 1.0]), np.array([1.0, 0.0]), "decreasing")),
        (contspace.AnnulusHomeo, (np.array([0.0, 0.8]), np.array([0.0, 1.0]))),
    ]


def test_value_models_cover_every_value_class():
    listed = {n for names in VALUE_CLASSES.values() for n in names if not n.startswith("_")}
    assert {cls.__name__ for cls, _ in _value_models()} == listed


def test_models_return_their_stored_array():
    for cls, args in _value_models():
        model = cls(*args)
        name = cls.__name__
        for f, given in zip(dataclasses.fields(cls), args):
            if not isinstance(given, np.ndarray):
                continue
            stored = getattr(model, f.name)
            assert isinstance(stored, np.ndarray) and not stored.flags.writeable, name
            assert getattr(model, f.name) is stored, f"{name}.{f.name} is rebuilt on access"
            assert not np.shares_memory(stored, given) and given.flags.writeable, name
        if hasattr(model, "array"):
            assert _array_is_stored(model), name
        assert model == cls(*args), name
        with pytest.raises(TypeError):
            hash(model)
    disc = contspace.DiscGrid.build(contspace.ExhaustionDisc.default(), 8, 16)
    built = (
        contspace.GridFunction.coordinate(disc),
        holodisc.operator_matrix(holodisc.RotationOperator(1j, -1.0), 4),
    )
    for model in built:
        assert _array_is_stored(model), type(model).__name__


def test_store_copies_an_input_once_and_keeps_a_built_array():
    class Holder:
        pass

    obj, given, built = Holder(), [1, 2], np.arange(3.0)
    x, y = store(obj, float, x=given, y=built)
    assert obj.x is x and obj.y is y and x.dtype == float and y is not built
    assert not (x.flags.writeable or y.flags.writeable) and built.flags.writeable
    (z,) = store(obj, copy=None, z=built)
    assert z is built and not built.flags.writeable


def _layout_breaches(sources: dict, classes) -> list:
    """Modules other than the shared base that call setflags, and listed classes
    that convert to a tuple or declare a tuple field."""
    found = []
    for module, source in sorted(sources.items()):
        if module != "_frozen" and "setflags(" in source:
            found.append(f"{module}: setflags(")
        for node in ast.walk(ast.parse(source)):
            if not (isinstance(node, ast.ClassDef) and node.name in classes):
                continue
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call) and ast.unparse(sub.func) == "tuple":
                    found.append(f"{module}.{node.name}: tuple(")
                elif isinstance(sub, ast.AnnAssign) and ast.unparse(sub.annotation) == "tuple":
                    found.append(f"{module}.{node.name}: tuple field")
    return found


def test_layout_guard_sees_a_planted_spelling():
    planted = {
        "_frozen": "a.setflags(write=False)\n",
        "m": (
            "class Kept:\n    x: tuple\n\n    def f(self):\n        return tuple(self.x)\n\n\n"
            "class Other:\n    def g(self, a):\n        a.setflags(write=False)\n"
            "        return tuple(a)\n"
        ),
    }
    assert sorted(_layout_breaches(planted, {"Kept"})) == [
        "m.Kept: tuple field", "m.Kept: tuple(", "m: setflags(",
    ]


def test_value_classes_store_arrays_through_the_shared_base():
    sources = {p.stem: p.read_text() for p in Path(isolab.__path__[0]).glob("*.py")}
    classes = {n for names in VALUE_CLASSES.values() for n in names}
    assert _layout_breaches(sources, classes) == []
    for module, names in VALUE_CLASSES.items():
        for name in names:
            assert issubclass(getattr(importlib.import_module(f"isolab.{module}"), name), Frozen)


def _refusal_names() -> set:
    """Refusal and every subclass of it, at any depth."""
    names, todo = set(), [Refusal]
    while todo:
        cls = todo.pop()
        names.add(cls.__name__)
        todo.extend(cls.__subclasses__())
    return names


def _refusal_breaches(sources: dict, refusals) -> list:
    """Modules other than the shared base that raise one of the refusals
    themselves or define a refuse_if, instead of calling Refusal.unless_within."""
    found = []
    for module, source in sorted(sources.items()):
        if module == "_frozen":
            continue
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.FunctionDef) and node.name == "refuse_if":
                found.append(f"{module}: def refuse_if")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = ast.unparse(exc).rsplit(".", 1)[-1]
                if name in refusals:
                    found.append(f"{module}: raise {name}")
    return found


def test_refusal_guard_sees_a_planted_spelling():
    planted = {
        "_frozen": "def rule(cert):\n    raise Refused('check', '', cert)\n",
        "m": (
            "def engine(cert):\n"
            "    def refuse_if(bad, check, details):\n"
            "        if bad:\n"
            "            raise Refused(check, details, cert)\n\n"
            "    Refused.unless_within(cert, 'gap', 0.0, 1.0, 'check', '')\n"
            "    raise ValueError('not a refusal')\n\n\n"
            "def other():\n"
            "    raise pkg.Declined('check', '', {}) from None\n"
        ),
    }
    assert sorted(_refusal_breaches(planted, {"Refused", "Declined"})) == [
        "m: def refuse_if", "m: raise Declined", "m: raise Refused",
    ]


def test_every_refusal_goes_through_the_shared_rule():
    refusals = _refusal_names()
    assert {"NotCharacterizable", "NotWeightedComposition", "RecoveryFailed"} <= refusals
    sources = {p.stem: p.read_text() for p in Path(isolab.__path__[0]).glob("*.py")}
    assert _refusal_breaches(sources, refusals) == []


def _fresh(code: str):
    """What a fresh interpreter with isolab on its path prints as JSON after running code."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=ROOT
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _loaded_after(package, *argvs) -> tuple:
    """(exit codes, loaded modules of package) of a fresh interpreter that
    imports isolab and then runs cli.main on each argv."""
    code = (
        "import contextlib, io, json, sys\n"
        "import isolab\n"
        "from isolab import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.main(list(argv)) for argv in {argvs!r}]\n"
        f"print(json.dumps([codes, sorted(m for m in sys.modules if m.split('.')[0] == {package!r})]))\n"
    )
    return tuple(_fresh(code))


def test_import_loads_no_scipy():
    assert _loaded_after("scipy") == ([], [])


def test_scipy_free_subcommands_load_no_scipy(tmp_path):
    # the cli benchmark's 23 argvs: every subcommand with its defaults, the disc
    # recovery, then every selftest
    from isolab import cli

    fig = ["--out", str(tmp_path)]
    argvs = [[name, *(fig if name == "emit-figure" else [])] for name in cli._HANDLERS]
    argvs += [["cu-recover", "--domain", "disc"]]
    argvs += [[name, "--selftest", *(fig if name == "emit-figure" else [])] for name in cli._HANDLERS]
    assert len(argvs) == 23
    assert _loaded_after("scipy", *argvs) == ([0] * 23, [])


def test_roundtrip_checks_load_no_scipy():
    code = (
        "import json, sys\n"
        "from isolab import recovery\n"
        "from isolab.gauges import make_builtin_gauge\n"
        "nu = recovery.LogMeasure((-1.2, 0.3), (0.35, 0.4))\n"
        "passed = [recovery.roundtrip_check(make_builtin_gauge(*g), nu, recovery.RecoverySpec(), 2).passed\n"
        "          for g in (('rational', 2.0), ('clip',), ('exp',))]\n"
        "print(json.dumps([passed, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
    )
    assert _fresh(code) == [[True] * 3, []]


def test_recover_measure_selftest_loads_scipy_only_through_the_gamma_shim():
    # its one case recovers under the exp gauge, whose Mellin transform is now
    # the numpy log-gamma in gauges, so the shim loads no scipy at all
    codes, loaded = _loaded_after("scipy", ["recover-measure", "--selftest"])
    assert codes == [0]
    assert loaded == []


def test_light_subcommands_load_only_gauges_and_metric():
    argvs = [[name, *flag] for name in ("theta-check", "frullani", "separate")
             for flag in ([], ["--selftest"])]
    codes, loaded = _loaded_after("isolab", *argvs)
    assert codes == [0] * 6
    light = {f"isolab{m}" for m in ("", ".cli", ".io_formats", "._frozen", ".gauges", ".metric")}
    assert set(loaded) <= light, loaded


def test_fresh_import_loads_the_library_on_first_use():
    code = (
        "import json, sys\n"
        "import isolab\n"
        "before = sorted(m for m in sys.modules if m.startswith('isolab.'))\n"
        "names = isolab.__all__\n"
        "missing = [n for n in names if not hasattr(isolab, n)]\n"
        "star = {}\n"
        "exec('from isolab import *', star)\n"
        "print(json.dumps([before, len(names), len(set(names)), missing,\n"
        "                  sorted(set(names) - set(star))]))\n"
    )
    assert _fresh(code) == [[], 82, 82, [], []]


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


def _scipy_imports(sources: dict) -> list:
    """'module: scope' for every import of scipy, scope being the dotted path
    of the functions and classes around it ('module' at top level)."""
    found = []

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, child.name if scope == "module" else f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                names = [child.module]
            else:
                names = []
            if any(name.split(".")[0] == "scipy" for name in names):
                found.append(f"{module}: {scope}")
            visit(child, module, scope)

    for module, source in sorted(sources.items()):
        visit(ast.parse(source), module, "module")
    return found


def test_scipy_guard_sees_a_planted_import():
    planted = {
        "contspace": "def cKDTree(points):\n    from scipy import spatial\n    return spatial\n",
        "m": (
            "import numpy, scipy.special\n"
            "from . import scipy\n\n\n"
            "def gamma(z):\n"
            "    if z:\n"
            "        from scipy.special import gamma\n\n\n"
            "class Grid:\n"
            "    def cKDTree(self):\n"
            "        import scipy as sp\n"
        ),
    }
    assert _scipy_imports(planted) == [
        "contspace: cKDTree", "m: module", "m: gamma", "m: Grid.cKDTree",
    ]


def test_only_the_disc_kdtree_imports_scipy():
    sources = {p.stem: p.read_text() for p in Path(isolab.__path__[0]).glob("*.py")}
    assert _scipy_imports(sources) == ["contspace: cKDTree"]
