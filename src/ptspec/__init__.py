"""Spectra of PT-symmetric Schrodinger problems on complexified contours."""

from .analytic import *  # noqa: F403
from .contour import *  # noqa: F403
from .errors import *  # noqa: F403
from .model import *  # noqa: F403

__version__ = "0.1.0"


def __getattr__(name: str):
    # PEP 562: reached only by names not bound yet.  The solver (and numpy)
    # loads on the first such name, and its __all__ is bound here as a star
    # import would, so the closed forms run without it.  No public name starts
    # with "_", so such a probe (hasattr(ptspec, "__wrapped__")) loads nothing.
    if name == "__all__" or not name.startswith("_"):
        import importlib

        solver = importlib.import_module(".solver", __name__)
        globals().update((n, getattr(solver, n)) for n in solver.__all__)
        if name == "__all__":  # what `from ptspec import *` binds: every public name
            return [n for n in globals() if not n.startswith("_")]
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    __getattr__("__all__")
    return sorted(globals())
