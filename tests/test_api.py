import importlib
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
