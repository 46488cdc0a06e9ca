"""Deciding the synthesis formulas: an SMT session with two backends.

An external solver is one child process reading SMT-LIB2 on stdin: an
explicit command, else a native `z3 -in` on PATH. It is kept alive for
the whole session, and each query runs in a push/pop frame, so the
command must accept push, pop, echo, reset and get-value. Without
either, SmtSession decides the same Formula objects with the built-in
exact integer backend (`exact.py`), so synthesis never needs a binary.
An external solver's timeout or 'unknown' is raised at once; there is
no retry. One thread reads the child's stderr together with its stdout,
and a SolverProcessError ends with their last lines. Every model, from
either backend, is re-evaluated locally with exact integer arithmetic
before being accepted, so a misbehaving or misparsed solver can never
smuggle in a bad vector.
"""

from __future__ import annotations

import contextlib
import queue
import re
import shutil
import subprocess
import threading
import time
from collections import deque
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Optional, Sequence

from .formula import Formula, evaluate, to_smt
from .net import IntVector


class SolverError(Exception):
    """Base for everything that can go wrong outside the theory itself."""


class SolverNotFoundError(SolverError):
    pass


class SolverProcessError(SolverError):
    pass


class SolverParseError(SolverError):
    pass


class SolverTimeoutError(SolverError):
    pass


class SolverUnknownError(SolverError):
    """The solver answered 'unknown'; never to be conflated with unsat."""


@dataclass
class SolverConfig:
    """Which external solver to run, if any, and how long each query may take."""

    command: Optional[tuple[str, ...]] = None  # None: discover automatically
    timeout_ms: int = 15_000  # per solver query

    def __post_init__(self):
        # The pipe's queue.get cannot wait past threading.TIMEOUT_MAX
        # seconds; nan fails the chained comparison too.
        if not 0 < self.timeout_ms <= threading.TIMEOUT_MAX * 1000:
            raise ValueError(f"timeout must be in (0, {threading.TIMEOUT_MAX * 1000:.0f}] ms")
        if isinstance(self.command, str):
            # tuple("z3 -in") would be its characters; shlex.split it instead
            raise ValueError(f"command must be a sequence of arguments, not {self.command!r}")
        if self.command is not None:
            self.command = tuple(self.command)


def discover_solver() -> tuple[str, ...]:
    """A native z3 binary on PATH, run as `z3 -in`.

    SmtSession treats SolverNotFoundError as "use the built-in backend";
    other callers see it as "no external solver".
    """
    z3 = shutil.which("z3")
    if z3:
        return (z3, "-in")
    raise SolverNotFoundError("no external SMT solver available: put z3 on PATH")


# -- get-value answers ---------------------------------------------------

# One (name value) pair of a get-value answer; the value is an integer
# literal or its negation (- n), across any whitespace.
_PAIR = re.compile(r"\(\s*([^\s()]+)\s+(?:(-?\d+)|\(\s*-\s+(\d+)\s*\))\s*\)")


def parse_model(text: str, names: Sequence[str]) -> IntVector:
    """Values in names order from get-value output like ((k0 5) (k1 (- 3)))."""
    depths = list(accumulate((ch == "(") - (ch == ")") for ch in text)) or [0]
    if min(depths) < 0 or depths[-1] != 0:
        raise SolverParseError(f"unbalanced parentheses in {text!r}")
    values = {m[1]: int(m[2]) if m[2] else -int(m[3]) for m in _PAIR.finditer(text)}
    missing = [n for n in names if n not in values]
    if missing:
        raise SolverParseError(f"model output lacked integer values for {missing}: {text!r}")
    return tuple(values[n] for n in names)


# -- session ------------------------------------------------------------

_EOF = object()


class SmtSession:
    """One solver dialogue; base assertions persist across check() calls.

    begin(n) opens a fresh problem over n integer unknowns, reusing the
    child process via (reset). add() asserts at the base level;
    check(extra) decides base + extra, returning the model as a k-vector
    (a tuple indexed like k) or None for unsat. The extra formulas live
    in a push/pop frame, so they vanish after the call. add() and check() before begin() raise
    SolverError. With command None the built-in exact backend answers
    every check() in-process and no child is started.
    """

    def __init__(self, cfg: SolverConfig):
        self.cfg = cfg
        # the configured command, else a native z3, else the built-in backend
        self.command = cfg.command or None
        if self.command is None:
            with contextlib.suppress(SolverNotFoundError):
                self.command = discover_solver()
        self.queries = 0
        self._proc: Optional[subprocess.Popen] = None
        self._lines: Optional[queue.Queue] = None
        self._tail: deque = deque(maxlen=50)
        self._names: list[str] = []
        self._aux: list[str] = []
        self._base: list[Formula] = []
        self._sync = 0

    # -- lifecycle ----------------------------------------------------

    def begin(self, nvars: int) -> None:
        if nvars < 1:
            raise ValueError("need at least one unknown")
        self._names = [f"k{i}" for i in range(nvars)]
        self._aux = [f"abs_k{i}" for i in range(nvars)]
        self._base = []
        if self.command:
            if self._proc is None:
                self._spawn()
            else:
                self._send("(reset)")
            self._send(self._preamble())

    def close(self) -> None:
        proc = self._proc
        if proc is None:
            return
        with contextlib.suppress(OSError, ValueError):
            proc.stdin.write("(exit)\n")
            proc.stdin.flush()
        with contextlib.suppress(subprocess.TimeoutExpired):
            proc.wait(timeout=5)
        self._kill()

    def __enter__(self) -> "SmtSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- problem construction -------------------------------------------

    def add(self, f: Formula) -> None:
        if not self._names:
            raise SolverError("call begin() before add()")
        self._base.append(f)
        if self.command:
            self._send(f"(assert {to_smt(f, self._names)})")

    def check(self, extra: Sequence[Formula] = ()) -> Optional[IntVector]:
        """Decide base + extra. Returns a k-vector or None for unsat.

        The returned model has the least sum of |k(i)| the backend could
        establish. An external solver gets a binary search over plain
        check-sat queries with that sum capped (no optimizing solver
        needed); a probe answering 'unknown' ends the search and the
        incumbent is kept. The built-in backend searches with the sum
        capped below its incumbent.
        """
        if not self._names:
            raise SolverError("call begin() before check()")
        extra = list(extra)
        self.queries += 1
        if self.command is None:
            from .exact import solve  # not at the top: exact imports the errors above

            deadline = time.monotonic() + self.cfg.timeout_ms / 1000.0
            model = solve(self._base + extra, len(self._names), deadline)
        else:
            asserts = [f"(assert {to_smt(f, self._names)})" for f in extra]
            model = self._scoped(asserts, self._minimized)
        if model is not None:
            for f in self._base + extra:
                if not evaluate(f, model):
                    raise SolverParseError(
                        f"model {model} fails local re-evaluation; "
                        "refusing to trust the solver output"
                    )
        return model

    # -- external solver: one child process, queries in push/pop frames --

    def _preamble(self) -> str:
        # Solver-side timeout below the pipe deadline, so a hard query
        # comes back as 'unknown' instead of a killed process. The old
        # simplex core (arith.solver 2) is far more predictable than the
        # default on the integer problems this package emits.
        budget = max(500, self.cfg.timeout_ms - 2000)
        lines = [
            f"(set-option :timeout {budget})",
            "(set-option :smt.arith.solver 2)",
            "(set-logic ALL)",
        ]
        for name in self._names:
            lines.append(f"(declare-const {name} Int)")
        for name, aux in zip(self._names, self._aux):
            lines.append(f"(declare-const {aux} Int)")
            lines.append(f"(assert (>= {aux} {name}))")
            lines.append(f"(assert (>= {aux} (- {name})))")
        return "\n".join(lines)

    def _cap_assert(self, cap: int) -> str:
        total = self._aux[0] if len(self._aux) == 1 else "(+ " + " ".join(self._aux) + ")"
        return f"(assert (<= {total} {cap}))"

    def _minimized(self) -> Optional[IntVector]:
        """A plain check, then a binary search over capped probes for a smaller |k| sum.

        Each probe decides the problem with sum |k(i)| <= cap in its own
        push/pop frame.
        """
        best = self._plain_check()
        if best is None:
            return best
        lo, hi = 0, sum(map(abs, best)) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            try:
                probe = self._scoped([self._cap_assert(mid)], self._plain_check)
            except SolverUnknownError:
                break  # minimization is best effort; keep the incumbent
            if probe is None:
                lo = mid + 1
            else:
                best = probe
                hi = sum(map(abs, probe)) - 1
        return best

    def _spawn(self) -> None:
        try:
            self._proc = subprocess.Popen(
                self.command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
            )
        except OSError as exc:
            raise SolverProcessError(f"cannot start solver {self.command}: {exc}")
        self._lines = queue.Queue()
        self._tail = deque(maxlen=50)
        threading.Thread(
            target=self._drain, args=(self._proc.stdout, self._lines, self._tail), daemon=True
        ).start()

    @staticmethod
    def _drain(stream, sink: queue.Queue, tail: deque) -> None:
        # stderr shares the pipe, so at EOF the tail holds the child's last words
        with stream:
            for line in stream:
                line = line.rstrip("\n")
                tail.append(line)
                sink.put(line)
        sink.put(_EOF)

    def _kill(self) -> None:
        """Kill and reap the child, then close its stdin; the one place that ends it."""
        proc = self._proc
        self._proc = None
        if proc is None:
            return
        proc.kill()
        proc.wait()
        with contextlib.suppress(OSError):  # a broken pipe on flush is moot now
            proc.stdin.close()

    def _send(self, text: str) -> None:
        if self._proc is None:
            raise SolverProcessError("solver process is not running")
        try:
            self._proc.stdin.write(text + "\n")
            self._proc.stdin.flush()
        except (OSError, ValueError) as exc:
            self._kill()
            raise SolverProcessError(f"solver pipe closed: {exc}\n" + "\n".join(self._tail))

    def _exchange(self, cmd: str) -> list[str]:
        """Send cmd, read output lines until the sync marker comes back."""
        self._sync += 1
        mark = f"::sync-{self._sync}::"
        self._send(f'{cmd}\n(echo "{mark}")')
        deadline = time.monotonic() + self.cfg.timeout_ms / 1000.0
        lines: list[str] = []
        while True:
            try:
                line = self._lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                self._kill()
                raise SolverTimeoutError(f"no answer within {self.cfg.timeout_ms} ms")
            if line is _EOF:
                self._kill()
                raise SolverProcessError("solver exited unexpectedly\n" + "\n".join(self._tail))
            line = line.strip()
            if line == mark:
                return lines
            if line:
                lines.append(line)

    def _plain_check(self) -> Optional[IntVector]:
        """(check-sat), then get-value on sat; None for unsat."""
        lines = self._exchange("(check-sat)")
        status = next((l for l in lines if l in ("sat", "unsat", "unknown")), None)
        if status is None:
            raise SolverProcessError(f"no sat/unsat answer: {lines!r}")
        if status == "unknown":
            raise SolverUnknownError("solver answered 'unknown'")
        if status == "unsat":
            return None
        lines = self._exchange(f"(get-value ({' '.join(self._names)}))")
        errors = [l for l in lines if l.startswith("(error")]
        if errors:
            raise SolverProcessError(f"get-value failed: {errors!r}")
        return parse_model("\n".join(lines), self._names)

    def _scoped(
        self, asserts: list[str], run: Callable[[], Optional[IntVector]]
    ) -> Optional[IntVector]:
        """run() with asserts in a push/pop frame that leaves no trace."""
        self._send("(push 1)")
        try:
            for a in asserts:
                self._send(a)
            return run()
        finally:
            if self._proc is not None:
                self._send("(pop 1)")

