"""Instance families: a hard non-trivial family, equation-solving nets,
and seeded random nets for property tests."""

from __future__ import annotations

import random
from typing import Optional, Sequence

from .constants import extended_euclid_vector
from .net import HalfSpace, Instance, Mode, PetriNet, Transition, dot


def _family_index(n: int, j: Optional[int]) -> int:
    """The distinguished transition of nontrivial_net(n, j), checked with n."""
    if n < 3:
        raise ValueError("family needs n >= 3")
    j = n if j is None else j
    if not 1 <= j <= n:
        raise ValueError(f"j must be in [1, {n}]")
    return j


def nontrivial_net(n: int, j: Optional[int] = None) -> Instance:
    """Family needing a non-trivial certificate: n places, n transitions.

    Every transition consumes one token from each place; transition i puts
    n tokens on place i, except the distinguished transition j (1-based,
    default n) which puts n + 1. From the all-ones marking the all-twos
    marking is unreachable, but no half space trivial for every transition
    shows it; dropping any single transition would make one exist.
    """
    j = _family_index(n, j)
    places = tuple(f"p{i}" for i in range(1, n + 1))
    ones = (1,) * n
    transitions = []
    for i in range(1, n + 1):
        post = [0] * n
        post[i - 1] = n + 1 if i == j else n
        transitions.append(Transition(f"t{i}", ones, tuple(post)))
    return Instance(PetriNet(places, tuple(transitions)), ones, (2,) * n, Mode.REACH)


def nontrivial_certificate(n: int, j: Optional[int] = None) -> HalfSpace:
    """The known certificate for nontrivial_net(n, j)."""
    j = _family_index(n, j)
    k = tuple(-n if i == j else -(n + 1) for i in range(1, n + 1))
    return HalfSpace(k, -n * (n + 1))


def ussp_halfspace(
    w: Sequence[int], d: int
) -> Optional[tuple[PetriNet, HalfSpace]]:
    """Single-transition net whose inductivity encodes solving w . x = d.

    Returns None when gcd(w) does not divide d: the equation then has no
    solution at all and there is nothing to check. Otherwise (w, c) fails
    to be inductive for the built transition exactly when some x >= 0
    solves w . x = d.
    """
    w = tuple(w)
    if not w or any(e < 1 for e in w):
        raise ValueError("weights must be positive")
    if d < 0:
        raise ValueError("right-hand side must be non-negative")
    g, a = extended_euclid_vector(w)
    if d % g != 0:
        return None
    pre = tuple(max(e, 0) for e in a)
    post = tuple(max(-e, 0) for e in a)  # delta = -a, so w . delta = -gcd(w)
    places = tuple(f"p{i}" for i in range(1, len(w) + 1))
    net = PetriNet(places, (Transition("t", pre, post),))
    return net, HalfSpace(w, d + dot(w, pre))


def random_instance(
    seed: int,
    places: int = 3,
    transitions: int = 3,
    max_flow: int = 4,
    max_marking: int = 4,
    mode: Mode = Mode.REACH,
) -> Instance:
    """Reproducible random instance within the given size limits."""
    if places < 1 or transitions < 0 or max_flow < 0 or max_marking < 0:
        raise ValueError("limits must be positive")
    rng = random.Random(seed)
    names = tuple(f"p{i}" for i in range(1, places + 1))
    ts = []
    for i in range(1, transitions + 1):
        pre = tuple(rng.randint(0, max_flow) for _ in range(places))
        post = tuple(rng.randint(0, max_flow) for _ in range(places))
        ts.append(Transition(f"t{i}", pre, post))
    m0 = tuple(rng.randint(0, max_marking) for _ in range(places))
    mf = tuple(rng.randint(0, max_marking) for _ in range(places))
    return Instance(PetriNet(names, tuple(ts)), m0, mf, mode)
