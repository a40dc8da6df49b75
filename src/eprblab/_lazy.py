"""numpy, imported on first attribute access.

The exact commands (feasibility, enumerate, inequalities) never touch an
array, so they never pay numpy's import, and they run where numpy is not
installed.  There, the first array use raises ModuleNotFoundError naming
numpy.  Modules take ``np`` from here: an ``import numpy`` of their own
would load it at once.
"""

import importlib.util
import sys


class _Missing:
    """Stands in for a module that is not installed: any attribute use
    raises ModuleNotFoundError naming it."""

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr: str):
        raise ModuleNotFoundError(f"{self._name} is required for array commands but is not installed", name=self._name)


def _lazy_module(name: str):
    spec = importlib.util.find_spec(name)
    if spec is None:
        return _Missing(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = sys.modules.get("numpy") or _lazy_module("numpy")
