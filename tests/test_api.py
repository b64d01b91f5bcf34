import ast
import importlib
import pathlib
import pkgutil

import baryflow


def test_every_export_resolves():
    # a name deleted from a module but left in its __all__ breaks star imports only
    submodules = [importlib.import_module(f"baryflow.{info.name}")
                  for info in pkgutil.iter_modules(baryflow.__path__)]
    assert submodules
    missing = [f"{module.__name__}.{name}" for module in [baryflow, *submodules]
               for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def _names_loaded_in_src():
    """Every name that src/ loads, or reads as an attribute."""
    used = set()
    for source in pathlib.Path(baryflow.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_submodule_export_is_used():
    # a submodule's export is public (in baryflow.__all__) or used somewhere in
    # src/; one that only tests reach belongs in the tests
    used = _names_loaded_in_src()
    unused = [f"{info.name}.{name}" for info in pkgutil.iter_modules(baryflow.__path__)
              for name in getattr(importlib.import_module(f"baryflow.{info.name}"), "__all__", ())
              if name not in baryflow.__all__ and name not in used]
    assert unused == []


def test_every_package_export_is_used():
    # the public API is what callers use: a name in baryflow.__all__ that
    # nothing in src/ loads is one only tests reach, and belongs in the tests
    used = _names_loaded_in_src()
    assert [name for name in baryflow.__all__ if name not in used] == []
