"""numpy, imported on first attribute access.

The exact commands (feasibility, enumerate, inequalities) never touch an
array, so they never pay numpy's import.  Modules take ``np`` from here:
an ``import numpy`` of their own would load it at once.
"""

import importlib.util
import sys


def _lazy_module(name: str):
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = sys.modules.get("numpy") or _lazy_module("numpy")
