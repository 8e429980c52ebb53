"""Every exported name resolves, so no deleted name lingers in an export list."""
import importlib
import pkgutil
import types

import pytest

import nballdist

MODULES = sorted(m.name for m in pkgutil.iter_modules(nballdist.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"nballdist.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_package_exports_resolve_and_are_listed():
    # every public name of the package resolves and is in some module's __all__
    listed = set()
    for name in MODULES:
        listed.update(getattr(importlib.import_module(f"nballdist.{name}"), "__all__", ()))
    public = [n for n in dir(nballdist) if not n.startswith("_")
              and not isinstance(getattr(nballdist, n), types.ModuleType)]
    assert public
    assert [n for n in public if n not in listed] == []
