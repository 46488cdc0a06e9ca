"""Disprove Petri net reachability or coverability with half-space invariants.

A half space {m : k.m >= c} that contains the initial marking, excludes
the target, and cannot be left by firing any transition is a certificate
of non-reachability. This package decides inductivity of a given half
space exactly, generates all workable thresholds c for a fixed k, and
synthesizes k itself through an SMT solver with counterexample-guided
refinement.
"""

from .cegar import *
from .constants import *
from .fileformat import *
from .generators import *
from .inductivity import *
from .intervals import *
from .net import *

__version__ = "0.1.0"

# The SMT layer (solver.py, with subprocess and threading, and exact.py
# behind it) loads on the first synthesis or the first use of one of these
# names, which __getattr__ serves, so `import petrisep` and the other
# commands skip it.
_LAZY = ("SmtSession", "SolverConfig", "SolverError", "SolverNotFoundError", "SolverParseError",
         "SolverProcessError", "SolverTimeoutError", "SolverUnknownError", "discover_solver")

__all__ = sorted([*cegar.__all__, *constants.__all__, *fileformat.__all__, *generators.__all__,
                  *inductivity.__all__, *intervals.__all__, *net.__all__, *_LAZY])


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import solver

    return getattr(solver, name)
