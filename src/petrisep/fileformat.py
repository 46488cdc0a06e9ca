"""Line-oriented text format for verification instances.

Grammar (one directive per line, '#' starts a full-line comment):

    places <name> ... <name>
    transition <name> pre <int> ... <int> post <int> ... <int>
    init <int> ... <int>
    target <int> ... <int>
    mode reach|cover

`places` must appear before any directive that needs the arity. `mode` is
optional and defaults to reach. Parse errors carry the offending line number.

An integer token is whatever Python's `int()` accepts: an optional sign,
single underscores between digits, and any Unicode decimal digits, so `+3`,
`1_0` and U+0663 (ARABIC-INDIC DIGIT THREE) read as 3, 10 and 3, up to
Python's limit on the digits of one integer (sys.get_int_max_str_digits(),
4300 by default). A line ends at LF, CR LF or CR. `load_instance` reads
UTF-8 and skips a byte order mark at the start of the file.
"""

from __future__ import annotations

import sys
from typing import Optional, Sequence

from .net import Instance, Mode, PetriNet, StructureError, Transition

__all__ = ["NetFormatError", "format_instance", "load_instance", "parse_instance"]


class NetFormatError(ValueError):
    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def int_problem(tokens: Sequence[str]) -> str:
    """Why int() refuses the first token it refuses, quoting at most 20 characters."""
    for tok in tokens:
        try:
            int(tok)
        except ValueError:
            break
    shown = repr(tok) if len(tok) <= 20 else f"{tok[:20]!r}..."
    digits = sum(map(str.isdecimal, tok))
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if 0 < limit < digits:
        return f"{shown} has {digits} digits, over the limit sys.get_int_max_str_digits() = {limit}"
    return f"{shown} is not an integer"


def _parse_ints(tokens: list[str], lineno: int, what: str) -> tuple[int, ...]:
    try:
        return tuple(map(int, tokens))
    except ValueError:
        raise NetFormatError(f"{what}: {int_problem(tokens)}", lineno)


def parse_instance(text: str) -> Instance:
    places: Optional[tuple[str, ...]] = None
    n = 0
    transitions: list[Transition] = []
    tnames: set[str] = set()
    m_init = None
    m_final = None
    mode: Optional[Mode] = None

    # Only \r\n, \r and \n end a line, as open()'s universal newlines
    # read them; str.splitlines would also split on form feeds and Unicode
    # line breaks, and then name the wrong line in an error.
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        # split() drops the whitespace strip() would, so a comment is a
        # line whose first token starts with '#'.
        tokens = raw.split()
        if not tokens or tokens[0][0] == "#":
            continue
        head = tokens[0]

        if head == "transition":
            if places is None:
                raise NetFormatError("transition before places directive", lineno)
            if len(tokens) != 4 + 2 * n or tokens[2] != "pre" or tokens[3 + n] != "post":
                raise NetFormatError(
                    f"expected: transition <name> pre <{n} ints> post <{n} ints>",
                    lineno,
                )
            name = tokens[1]
            if name in tnames:
                raise NetFormatError(f"duplicate transition name {name!r}", lineno)
            try:
                pre = tuple(map(int, tokens[3 : 3 + n]))
                post = tuple(map(int, tokens[4 + n :]))
            except ValueError:  # again, token by token, to name the bad one
                pre = _parse_ints(tokens[3 : 3 + n], lineno, "pre")
                post = _parse_ints(tokens[4 + n :], lineno, "post")
            try:
                transitions.append(Transition(name, pre, post))
            except StructureError as exc:
                raise NetFormatError(str(exc), lineno)
            tnames.add(name)

        elif head == "places":
            if places is not None:
                raise NetFormatError("duplicate places directive", lineno)
            names = tokens[1:]
            if not names:
                raise NetFormatError("places directive needs at least one name", lineno)
            if len(set(names)) != len(names):
                raise NetFormatError("duplicate place name", lineno)
            places = tuple(names)
            n = len(places)

        elif head in ("init", "target"):
            if places is None:
                raise NetFormatError(f"{head} before places directive", lineno)
            if (head == "init" and m_init is not None) or (
                head == "target" and m_final is not None
            ):
                raise NetFormatError(f"duplicate {head} directive", lineno)
            try:
                vals = tuple(map(int, tokens[1:]))
            except ValueError:
                vals = _parse_ints(tokens[1:], lineno, head)
            if len(vals) != n:
                raise NetFormatError(f"{head} has {len(vals)} entries, expected {n}", lineno)
            if min(vals) < 0:
                raise NetFormatError(f"{head} marking must be non-negative", lineno)
            if head == "init":
                m_init = vals
            else:
                m_final = vals

        elif head == "mode":
            if mode is not None:
                raise NetFormatError("duplicate mode directive", lineno)
            if len(tokens) != 2 or tokens[1] not in ("reach", "cover"):
                raise NetFormatError("mode must be 'reach' or 'cover'", lineno)
            mode = Mode.COVER if tokens[1] == "cover" else Mode.REACH

        else:
            raise NetFormatError(f"unknown directive {head!r}", lineno)

    if places is None:
        raise NetFormatError("missing places directive")
    if m_init is None:
        raise NetFormatError("missing init directive")
    if m_final is None:
        raise NetFormatError("missing target directive")

    net = PetriNet(places, tuple(transitions))
    return Instance(net, m_init, m_final, mode or Mode.REACH)


def format_instance(inst: Instance) -> str:
    """Serialize an instance; parse_instance(format_instance(i)) == i.

    Raises ValueError for a net without places, and for the first place or
    transition name that is not one whitespace-free token: the format could
    not read either back.
    """
    if not inst.net.places:
        raise ValueError("a net without places cannot be written: the format needs one")
    names = (*inst.net.places, *(t.name for t in inst.net.transitions))
    bad = next((name for name in names if name.split() != [name]), None)
    if bad is not None:
        raise ValueError(f"name {bad!r} is not one token; the net file format cannot hold it")
    lines = ["places " + " ".join(inst.net.places)]
    for t in inst.net.transitions:
        lines.append(
            f"transition {t.name} pre "
            + " ".join(map(str, t.pre))
            + " post "
            + " ".join(map(str, t.post))
        )
    lines.append("init " + " ".join(map(str, inst.m_init)))
    lines.append("target " + " ".join(map(str, inst.m_final)))
    lines.append(f"mode {inst.mode.value}")
    return "\n".join(lines) + "\n"


def load_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_instance(fh.read())
