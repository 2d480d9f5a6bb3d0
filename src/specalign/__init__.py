"""Spectral graph alignment toolkit.

Generalized match/mismatch alignment scoring, two spectral solvers with
bipartite-matching rounding, seedable synthetic graph generators, exact
small-instance oracles, and closed-form mean-field references.

The package re-exports each library module's ``__all__``, where every public
name is declared; ``experiments`` and ``cli`` are imported by path.
"""

from . import align, graph, matching, metrics, randgen, score, spectral
from .align import *
from .graph import *
from .matching import *
from .metrics import *
from .randgen import *
from .score import *
from .spectral import *

__version__ = "0.1.0"

__all__ = [name for module in (align, graph, matching, metrics, randgen, score, spectral) for name in module.__all__]
