"""Exact computation for restricted power domination and zero forcing.

A power dominating set observes its closed neighborhood and then runs
the zero forcing color change rule to completion; the restricted variant
requires a given vertex set X inside the solution.  The package provides
the propagation processes, several independent exact solvers, fort
machinery, graph families, decomposition and composition rules, and a
catalogue of verified bounds, all over an immutable bitmask graph type.

Each module's ``__all__`` declares its public names; this package
re-exports every one of them.
"""

from . import bounds, constructions, decomposition, errors, forts, graph, propagation, solver
from .bounds import *
from .constructions import *
from .decomposition import *
from .errors import *
from .forts import *
from .graph import *
from .propagation import *
from .solver import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += graph.__all__
__all__ += propagation.__all__
__all__ += constructions.__all__
__all__ += forts.__all__
__all__ += solver.__all__
__all__ += decomposition.__all__
__all__ += bounds.__all__
__all__ += errors.__all__
