"""Spectra of PT-symmetric Schrodinger problems on complexified contours."""

from .analytic import *  # noqa: F403
from .contour import *  # noqa: F403
from .errors import *  # noqa: F403
from .model import *  # noqa: F403
from .solver import *  # noqa: F403

__version__ = "0.1.0"
