"""numpy, imported on first attribute use.

The exact commands (feasibility, enumerate, inequalities) never touch an
array, so they never pay numpy's import, and they run where numpy is not
installed.  Modules take ``np`` from here: an ``import numpy`` of their own
would load it at once.  Where numpy is already imported, ``np`` is that
module.  Otherwise ``np`` is a proxy that adds nothing to ``sys.modules``
until an attribute is used; then it imports numpy and keeps the attribute.
Where numpy is not installed, that first use raises ModuleNotFoundError
naming numpy.
"""

import sys


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
