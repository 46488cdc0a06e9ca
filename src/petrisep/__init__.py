"""Disprove Petri net reachability or coverability with half-space invariants.

A half space {m : k.m >= c} that contains the initial marking, excludes
the target, and cannot be left by firing any transition is a certificate
of non-reachability. This package decides inductivity of a given half
space exactly, generates all workable thresholds c for a fixed k, and
synthesizes k itself through an SMT solver with counterexample-guided
refinement.
"""

from .cegar import (
    CertificateReport,
    LoopBudget,
    Outcome,
    SynthesisResult,
    SynthesisStats,
    certify,
    synthesize,
)
from .constants import (
    ConstantsReport,
    constants_for_instance,
    extended_euclid_vector,
    frobenius_limit,
    generate_constants,
    normalize_primitive,
    separator_window,
)
from .fileformat import NetFormatError, format_instance, load_instance, parse_instance
from .generators import (
    nontrivial_certificate,
    nontrivial_net,
    random_instance,
    ussp_halfspace,
)
from .inductivity import (
    NetCheck,
    OracleBudgetError,
    TransitionCheck,
    TrivialFlags,
    check_net,
    check_transition,
    is_mixed,
    mixed_counterexample,
    oracle_check_transition,
    witness_bound,
)
from .intervals import IntervalSet
from .net import (
    ExplorationOutcome,
    ExplorationReport,
    HalfSpace,
    Instance,
    Mode,
    PetriNet,
    SeparatorVerdict,
    StructureError,
    Transition,
    bounded_explore,
    dot,
    verify_separator,
)

__version__ = "0.1.0"

__all__ = [
    "CertificateReport",
    "ConstantsReport",
    "ExplorationOutcome",
    "ExplorationReport",
    "HalfSpace",
    "Instance",
    "IntervalSet",
    "LoopBudget",
    "Mode",
    "NetCheck",
    "NetFormatError",
    "OracleBudgetError",
    "Outcome",
    "PetriNet",
    "SeparatorVerdict",
    "SmtSession",
    "SolverConfig",
    "SolverError",
    "SolverNotFoundError",
    "SolverParseError",
    "SolverProcessError",
    "SolverTimeoutError",
    "SolverUnknownError",
    "StructureError",
    "SynthesisResult",
    "SynthesisStats",
    "Transition",
    "TransitionCheck",
    "TrivialFlags",
    "bounded_explore",
    "certify",
    "check_net",
    "check_transition",
    "constants_for_instance",
    "discover_solver",
    "dot",
    "extended_euclid_vector",
    "format_instance",
    "frobenius_limit",
    "generate_constants",
    "is_mixed",
    "load_instance",
    "mixed_counterexample",
    "nontrivial_certificate",
    "nontrivial_net",
    "normalize_primitive",
    "oracle_check_transition",
    "parse_instance",
    "random_instance",
    "separator_window",
    "synthesize",
    "ussp_halfspace",
    "verify_separator",
    "witness_bound",
]

# The SMT layer (solver.py, with subprocess and threading, and exact.py
# behind it) loads on the first synthesis or the first use of a name in
# __all__ that the imports above leave unbound, so `import petrisep` and
# the other commands skip it.


def __getattr__(name: str):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import solver

    return getattr(solver, name)
