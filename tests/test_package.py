"""Every public name the package lists is importable and has a caller,
and every module uses what it imports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import isolab

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
    reads inside the top-level def or class of the same name."""
    read = set()
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
        read.discard(owner)
    return read


def _uncalled(public: list, sources: list) -> list:
    """Public names that none of the sources reads outside its own definition."""
    read = set().union(*(_read_names(s) for s in sources))
    return sorted(n for n in public if n not in read)


def test_uncalled_guard_sees_a_leftover():
    sources = ["def f():\n    return f\n\n\ndef g():\n    return h\n\n\nh = 1\n"]
    assert _uncalled(["f", "g", "h"], sources) == ["f", "g"]
    assert _uncalled(["f", "g"], [*sources, "from m import f, g\n\ng(f)\n"]) == []


def test_every_public_name_has_a_caller():
    files = [
        *Path(isolab.__path__[0]).glob("*.py"),
        *(ROOT / "demos").glob("*.py"),
        *(ROOT / "perfbench").rglob("*.py"),
        ROOT / "tests" / "test_acceptance.py",
    ]
    sources = [f.read_text() for f in files]
    names = [m.name for m in pkgutil.iter_modules(isolab.__path__) if m.name != "__main__"]
    for name in names:
        public = getattr(importlib.import_module(f"isolab.{name}"), "__all__", [])
        uncalled = _uncalled(public, sources)
        assert not uncalled, f"isolab.{name} lists {uncalled} but nothing outside tests calls them"


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
