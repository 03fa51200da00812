"""Every public name the package lists is importable, and every module
uses what it imports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import isolab


def test_every_module_all_resolves():
    names = [m.name for m in pkgutil.iter_modules(isolab.__path__) if m.name != "__main__"]
    assert "holodisc" in names and "cli" in names
    for name in names:
        module = importlib.import_module(f"isolab.{name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"isolab.{name}.__all__ lists undefined {missing}"


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
