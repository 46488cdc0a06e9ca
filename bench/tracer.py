"""Spans and per-layer counters recorded around calls into petrisep.

While installed, the tracer replaces every module-level reference inside the
package to the functions in TRACED with a wrapper, so calls that one module
makes into another (certify -> check_net -> check_transition) are recorded
too. Nothing in the package is edited, and uninstalling restores the original
references. A function that calls itself gets one span for its outermost call.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter_ns

# module -> public functions whose calls become spans named "<module>.<function>"
TRACED = {
    "fileformat": ("parse_instance",),
    "net": ("bounded_explore", "verify_separator"),
    "inductivity": ("check_net", "check_transition", "oracle_check_transition"),
    "constants": ("constants_for_instance",),
    "formula": ("separator_formula", "evaluate", "exclude_multiples", "to_smt"),
    "cegar": ("certify",),
}


def _mixed(k) -> bool:
    return any(x > 0 for x in k) and any(x < 0 for x in k)


def _count_explore(counts, args, r):
    counts["net.states_visited"] += r.states_visited


def _count_check(counts, args, r):
    counts["inductivity.sums_explored"] += r.sums_explored
    if not r.flags.any and not _mixed(args[0]):
        counts["inductivity.bfs_transitions"] += 1  # decided by the sum search


def _count_oracle(counts, args, r):
    counts["oracle.points"] += r.sums_explored


def _count_constants(counts, args, r):
    lo, hi = r.window
    counts["constants.window_width"] += max(0, hi - lo + 1)
    counts["constants.chosen"] += r.chosen is not None


def _count_smt(counts, args, r):
    counts["formula.smt_bytes"] += len(r.encode())


COUNTERS = {
    "net.bounded_explore": _count_explore,
    "inductivity.check_transition": _count_check,
    "inductivity.oracle_check_transition": _count_oracle,
    "constants.constants_for_instance": _count_constants,
    "formula.to_smt": _count_smt,
}


class Tracer:
    """Spans kept in memory: [name, start_ns, end_ns, parent, request, error]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.request = -1  # id of the request being served
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            span = [name, perf_counter_ns(), 0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        wrapped = {}
        for mod, names in TRACED.items():
            module = sys.modules[f"petrisep.{mod}"]
            for fname in names:
                fn = getattr(module, fname)
                wrapped[id(fn)] = (fn, self.wrap(f"{mod}.{fname}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != "petrisep" and not modname.startswith("petrisep."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def table(self) -> dict[str, dict]:
        """Per span name: calls, failed calls, total and self seconds."""
        rows: dict[str, dict] = {}
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (name, start, end, _, _, err) in enumerate(self.spans):
            row = rows.setdefault(name, {"calls": 0, "errors": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["errors"] += err is not None
            row["total_s"] += (end - start) / 1e9
            row["self_s"] += (end - start - child_ns[i]) / 1e9
        return rows

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics, named <module>.<metric>; times are inclusive."""
        rows = self.table()
        empty = {"calls": 0, "errors": 0, "total_s": 0.0}

        def calls(name):
            return rows.get(name, empty)["calls"]

        def secs(*names):
            return sum(rows.get(n, empty)["total_s"] for n in names)

        c = self.counts
        oracle = "inductivity.oracle_check_transition"
        constants = calls("constants.constants_for_instance")
        return {
            "fileformat.calls": calls("fileformat.parse_instance"),
            "fileformat.parse_s": secs("fileformat.parse_instance"),
            "net.explore_calls": calls("net.bounded_explore"),
            "net.explore_s": secs("net.bounded_explore"),
            "net.states_visited": c["net.states_visited"],
            "net.separator_s": secs("net.verify_separator"),
            "inductivity.check_calls": calls("inductivity.check_transition"),
            "inductivity.check_s": secs("inductivity.check_transition"),
            "inductivity.sums_explored": c["inductivity.sums_explored"],
            "inductivity.bfs_transitions": c["inductivity.bfs_transitions"],
            "oracle.calls": calls(oracle),
            "oracle.s": secs(oracle),
            "oracle.points": c["oracle.points"],
            "oracle.over_budget": sum(
                1 for span in self.spans if span[0] == oracle and span[5] == "OracleBudgetError"
            ),
            "constants.calls": constants,
            "constants.s": secs("constants.constants_for_instance"),
            "constants.window_width": c["constants.window_width"],
            "constants.chosen_ratio": c["constants.chosen"] / constants if constants else 0.0,
            "formula.build_s": secs("formula.separator_formula"),
            "formula.eval_calls": calls("formula.evaluate"),
            "formula.eval_s": secs("formula.evaluate"),
            "formula.emit_s": secs("formula.exclude_multiples", "formula.to_smt"),
            "formula.smt_bytes": c["formula.smt_bytes"],
            "cegar.certify_calls": calls("cegar.certify"),
            "cegar.certify_s": secs("cegar.certify"),
        }
