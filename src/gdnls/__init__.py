"""Solitary waves, variational levels, and certified global evolution for the
generalized derivative nonlinear Schrodinger equation

    i u_t + u_xx + i |u|^(2 sigma) u_x = 0

on a periodic box, with the machinery to decide when initial data sits in the
flow-invariant set that guarantees a global H^1 solution.
"""

__version__ = "0.1.0"  # the manifest's version; pyproject.toml repeats it

# each module's __all__ (the public classes of errors) is what the package exports
from .core import *
from .criterion import *
from .errors import *
from .evolve import *
from .functionals import *
from .variational import *
from .waves import *

__all__ = [name for name in dir() if not name.startswith("_")]
