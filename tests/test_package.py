"""Every public name the package lists is importable."""

import importlib
import pkgutil

import isolab


def test_every_module_all_resolves():
    names = [m.name for m in pkgutil.iter_modules(isolab.__path__) if m.name != "__main__"]
    assert "holodisc" in names and "cli" in names
    for name in names:
        module = importlib.import_module(f"isolab.{name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"isolab.{name}.__all__ lists undefined {missing}"
