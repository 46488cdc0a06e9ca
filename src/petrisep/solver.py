"""Deciding the synthesis formulas: an SMT session with two backends.

An external solver is one child process reading SMT-LIB2 on stdin: an
explicit command, else a native `z3 -in` on PATH. It is kept alive for
the whole session, and each query runs in a push/pop frame, so the
command must accept push, pop, echo, reset and get-value. Without
either, SmtSession decides the same Formula objects with the built-in
exact integer backend (`exact.py`), so synthesis never needs a binary.
An external solver's timeout or 'unknown' is raised at once; there is
no retry. Every model, from either backend, is re-evaluated locally with
exact integer arithmetic before being accepted, so a misbehaving or
misparsed solver can never smuggle in a bad vector.
"""

from __future__ import annotations

import queue
import shutil
import subprocess
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .formula import Formula, evaluate, to_smt


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
    command: Optional[tuple[str, ...]] = None  # None: discover automatically
    timeout_ms: int = 15_000  # per solver query
    minimize: bool = True  # shrink the |k| sum of each model before use

    def __post_init__(self):
        if self.timeout_ms <= 0:
            raise ValueError("timeout must be positive")
        if self.command is not None:
            self.command = tuple(self.command)

    def resolved_command(self) -> Optional[tuple[str, ...]]:
        """The external solver to run, or None for the built-in backend."""
        if self.command:
            return self.command
        try:
            return discover_solver()
        except SolverNotFoundError:
            return None


def discover_solver() -> tuple[str, ...]:
    """A native z3 binary on PATH, run as `z3 -in`.

    SmtSession treats SolverNotFoundError as "use the built-in backend";
    other callers see it as "no external solver".
    """
    z3 = shutil.which("z3")
    if z3:
        return (z3, "-in")
    raise SolverNotFoundError("no external SMT solver available: put z3 on PATH")


# -- s-expression parsing ---------------------------------------------


def tokenize_sexpr(text: str) -> list[str]:
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "()":
            out.append(ch)
            i += 1
            continue
        if ch == '"':
            j = i + 1
            while j < n:
                if text[j] == '"':
                    if j + 1 < n and text[j + 1] == '"':
                        j += 2
                        continue
                    break
                j += 1
            out.append(text[i : j + 1])
            i = j + 1
            continue
        j = i
        while j < n and not text[j].isspace() and text[j] not in '()"':
            j += 1
        out.append(text[i:j])
        i = j
    return out


def parse_sexprs(text: str) -> list:
    toks = tokenize_sexpr(text)
    pos = 0

    def one():
        nonlocal pos
        tok = toks[pos]
        pos += 1
        if tok == "(":
            items = []
            while pos < len(toks) and toks[pos] != ")":
                items.append(one())
            if pos >= len(toks):
                raise SolverParseError(f"unbalanced s-expression in {text!r}")
            pos += 1
            return items
        if tok == ")":
            raise SolverParseError(f"unexpected ')' in {text!r}")
        return tok

    out = []
    while pos < len(toks):
        out.append(one())
    return out


def _sexpr_int(x) -> int:
    if isinstance(x, str):
        try:
            return int(x)
        except ValueError:
            raise SolverParseError(f"expected an integer, got {x!r}")
    if isinstance(x, list) and len(x) == 2 and x[0] == "-":
        return -_sexpr_int(x[1])
    raise SolverParseError(f"expected an integer, got {x!r}")


def parse_model(text: str, names: Sequence[str]) -> dict[str, int]:
    """Extract variable values from get-value output like ((k0 5) (k1 (- 3)))."""
    values: dict[str, int] = {}
    for expr in parse_sexprs(text):
        if not isinstance(expr, list):
            continue
        for pair in expr:
            if isinstance(pair, list) and len(pair) == 2 and isinstance(pair[0], str):
                values[pair[0]] = _sexpr_int(pair[1])
    missing = [n for n in names if n not in values]
    if missing:
        raise SolverParseError(f"model output lacked values for {missing}: {text!r}")
    return {n: values[n] for n in names}


# -- session ------------------------------------------------------------

_EOF = object()


def _close_stdin(proc: subprocess.Popen) -> None:
    """Close the pipe to an exited child; a broken pipe on flush is moot."""
    try:
        proc.stdin.close()
    except OSError:
        pass


class SmtSession:
    """One solver dialogue; base assertions persist across check() calls.

    begin(n) opens a fresh problem over the integer unknowns k0..k(n-1),
    reusing the child process via (reset). add() asserts at the base
    level; check(extra) decides base + extra, returning a model dict or
    None for unsat. The extra formulas live in a push/pop frame, so they
    vanish after the call. add() and check() before begin() raise
    SolverError. With command None the built-in exact backend answers
    every check() in-process and no child is started.
    """

    def __init__(self, cfg: SolverConfig):
        self.cfg = cfg
        self.command = cfg.resolved_command()
        self.queries = 0
        self._proc: Optional[subprocess.Popen] = None
        self._lines: Optional[queue.Queue] = None
        self._stderr_tail: deque = deque(maxlen=50)
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

    @property
    def names(self) -> list[str]:
        return list(self._names)

    def close(self) -> None:
        proc = self._proc
        self._proc = None
        if proc is None:
            return
        try:
            proc.stdin.write("(exit)\n")
            proc.stdin.flush()
        except (OSError, ValueError):
            pass
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        _close_stdin(proc)

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

    def check(self, extra: Sequence[Formula] = ()) -> Optional[dict[str, int]]:
        """Decide base + extra. Returns a model dict or None for unsat.

        With minimization enabled the returned model has the least sum of
        |k(i)| the backend could establish. An external solver gets a
        binary search over plain check-sat queries with that sum capped (no
        optimizing solver needed); a probe answering 'unknown' ends the
        search and the incumbent is kept. The built-in backend searches
        with the sum capped below its incumbent.
        """
        if not self._names:
            raise SolverError("call begin() before check()")
        extra = list(extra)
        self.queries += 1
        if self.command is None:
            model = self._check_exact(extra)
        else:
            asserts = [f"(assert {to_smt(f, self._names)})" for f in extra]
            model = self._scoped(asserts, self._minimized)
        if model is not None:
            assignment = [model[n] for n in self._names]
            for f in self._base + extra:
                if not evaluate(f, assignment):
                    raise SolverParseError(
                        f"model {assignment} fails local re-evaluation; "
                        "refusing to trust the solver output"
                    )
        return model

    # -- built-in backend ------------------------------------------------

    def _check_exact(self, extra: list[Formula]) -> Optional[dict[str, int]]:
        from .exact import solve  # not at the top: exact imports the errors above

        deadline = time.monotonic() + self.cfg.timeout_ms / 1000.0
        values = solve(self._base + extra, len(self._names), self.cfg.minimize, deadline)
        return None if values is None else dict(zip(self._names, values))

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

    def _abs_sum(self, model: dict[str, int]) -> int:
        return sum(abs(model[n]) for n in self._names)

    def _cap_assert(self, cap: int) -> str:
        total = self._aux[0] if len(self._aux) == 1 else "(+ " + " ".join(self._aux) + ")"
        return f"(assert (<= {total} {cap}))"

    def _minimized(self) -> Optional[dict[str, int]]:
        """A plain check, then a binary search over capped probes for a smaller |k| sum.

        Each probe decides the problem with sum |k(i)| <= cap in its own
        push/pop frame.
        """
        best = self._plain_check()
        if best is None or not self.cfg.minimize:
            return best
        lo, hi = 0, self._abs_sum(best) - 1
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
                hi = self._abs_sum(probe) - 1
        return best

    def _spawn(self) -> None:
        try:
            self._proc = subprocess.Popen(
                self.command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
        except OSError as exc:
            raise SolverProcessError(f"cannot start solver {self.command}: {exc}")
        self._lines = queue.Queue()
        self._stderr_tail = deque(maxlen=50)
        threading.Thread(
            target=self._drain, args=(self._proc.stdout, self._lines), daemon=True
        ).start()
        threading.Thread(
            target=self._drain_err, args=(self._proc.stderr,), daemon=True
        ).start()

    def _drain(self, stream, sink: queue.Queue) -> None:
        with stream:
            for line in stream:
                sink.put(line.rstrip("\n"))
        sink.put(_EOF)

    def _drain_err(self, stream) -> None:
        with stream:
            for line in stream:
                self._stderr_tail.append(line.rstrip("\n"))

    def _kill(self) -> None:
        proc = self._proc
        self._proc = None
        if proc is not None:
            proc.kill()
            proc.wait()
            _close_stdin(proc)

    def _send(self, text: str) -> None:
        if self._proc is None:
            raise SolverProcessError("solver process is not running")
        try:
            self._proc.stdin.write(text + "\n")
            self._proc.stdin.flush()
        except (OSError, ValueError) as exc:
            err = "\n".join(self._stderr_tail)
            self._kill()
            raise SolverProcessError(f"solver pipe closed: {exc}\n{err}")

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
                err = "\n".join(self._stderr_tail)
                self._kill()
                raise SolverProcessError(f"solver exited unexpectedly\n{err}")
            line = line.strip()
            if line == mark:
                return lines
            if line:
                lines.append(line)

    def _plain_check(self) -> Optional[dict[str, int]]:
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
        self, asserts: list[str], run: Callable[[], Optional[dict[str, int]]]
    ) -> Optional[dict[str, int]]:
        """run() with asserts in a push/pop frame that leaves no trace."""
        self._send("(push 1)")
        try:
            for a in asserts:
                self._send(a)
            return run()
        finally:
            if self._proc is not None:
                self._send("(pop 1)")

