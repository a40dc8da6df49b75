"""Deferred imports: numpy on first attribute use, and a package function
on its first call.

The exact commands (feasibility, enumerate, inequalities) never touch an
array, so they never pay numpy's import, and they run where numpy is not
installed.  Modules take ``np`` from here: an ``import numpy`` of their own
would load it at once.  Where numpy is already imported, ``np`` is that
module.  Otherwise ``np`` is a proxy that adds nothing to ``sys.modules``
until an attribute is used; then it imports numpy and keeps the attribute.
Where numpy is not installed, that first use raises ModuleNotFoundError
naming numpy.

``function(module, name)`` is how ``cli`` binds the functions its commands
call, so that a command compiles and imports only the modules it runs.
"""

import sys
from importlib import import_module


class _Numpy:
    """numpy's attributes, each imported on its first use and kept."""

    def __getattr__(self, attr: str):
        try:
            import numpy
        except ModuleNotFoundError as exc:
            if exc.name != "numpy":
                raise
            message = "numpy is required for array commands but is not installed"
            raise ModuleNotFoundError(message, name="numpy") from None
        value = getattr(numpy, attr)
        setattr(self, attr, value)
        return value


np = sys.modules.get("numpy") or _Numpy()


def function(module: str, name: str):
    """A forwarder to ``name`` of ``eprblab.<module>``: each call imports the
    module (on the first call only, a lookup after that) and calls the name
    it holds then.  The forwarder carries that function's ``__module__``,
    ``__name__`` and ``__qualname__``, so whatever keys on a function's
    names (the benchmark's tracer among them) takes it for the owner's."""
    owner = f"{__package__}.{module}"

    def forward(*args, **kwargs):
        return getattr(import_module(owner), name)(*args, **kwargs)

    forward.__module__ = owner
    forward.__name__ = forward.__qualname__ = name
    return forward
