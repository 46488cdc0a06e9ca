"""Command-line interface.

Exit codes, uniform across subcommands:
  0  positive result (certificate found/verified, target reached, ...)
  1  definite negative (no separator exists, certificate fails, not reached)
  2  inconclusive (budget exhausted, rejected query)
  3  input error (unreadable file, arity mismatch, bad flags)
  4  solver or environment trouble (missing binary, timeout, 'unknown')
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shlex
import sys
from typing import Optional, Sequence, TextIO, Union

from .cegar import LoopBudget, Outcome, certify, synthesize
from .constants import constants_for_instance
from .fileformat import NetFormatError, format_instance, int_problem, load_instance
from .generators import nontrivial_net, random_instance, ussp_halfspace
from .inductivity import (
    OracleBudgetError,
    check_net,
    is_mixed,
    oracle_check_transition,
)
from .net import (
    ExplorationOutcome,
    HalfSpace,
    Instance,
    Mode,
    SeparatorVerdict,
    StructureError,
    bounded_explore,
    dot,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3
EXIT_SOLVER = 4


def _parse_vector(parts: Sequence[str]) -> tuple[int, ...]:
    # The tokens of an nargs="+" option, each holding one or more
    # comma-separated integers, so both --k 3,2 and --k -4 -3 work
    # (argparse takes -4,-3 for an option).
    tokens = " ".join(parts).replace(",", " ").split()
    try:
        return tuple(map(int, tokens))
    except ValueError:
        raise ValueError(f"cannot parse integer vector: {int_problem(tokens)}")


def _read_k(args, inst: Instance) -> tuple[int, ...]:
    k = _parse_vector(args.k)
    if len(k) != inst.net.n:
        raise ValueError(f"k has {len(k)} entries but the net has {inst.net.n} places")
    return k


def _load(args) -> Instance:
    inst = load_instance(args.file)
    if getattr(args, "mode", None):
        inst = Instance(inst.net, inst.m_init, inst.m_final, Mode(args.mode))
    return inst


def _write_json(target: Union[None, str, TextIO], doc) -> None:
    """Write doc to a file path or, for --json -, to the stream main kept."""
    if not target:
        return
    text = json.dumps(doc, indent=2) + "\n"
    if isinstance(target, str):
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        target.write(text)


def _print_transition_lines(per_transition) -> None:
    for r in per_transition:
        if r.inductive:
            print(f"transition {r.transition}: inductive ({r.describe()})")
        else:
            print(
                f"transition {r.transition}: NOT inductive; "
                f"witness x = {r.witness} with k.(x + pre) = {r.witness_value}"
            )


def _print_separation(inst: Instance, hs: HalfSpace, sep: SeparatorVerdict) -> None:
    print(
        f"separation: k.m_init = {dot(hs.k, inst.m_init)} "
        f"{'>=' if sep.init_inside else '<'} {hs.c}; "
        f"k.m_final = {dot(hs.k, inst.m_final)} "
        f"{'<' if sep.final_outside else '>='} {hs.c}"
    )
    if sep.cover_nonpositive is not None:
        print(f"cover condition k <= 0: {'holds' if sep.cover_nonpositive else 'VIOLATED'}")


def cmd_synthesize(args) -> int:
    # Only synthesis talks to a solver, so only it loads the solver module.
    from .solver import SolverConfig, SolverError

    inst = _load(args)
    command = tuple(shlex.split(args.solver)) if args.solver else None
    cfg = SolverConfig(command=command, timeout_ms=args.timeout_ms)
    budget = LoopBudget(
        max_iterations=args.max_iters,
        max_seconds=args.max_seconds,
        max_bound=args.max_bound,
    )
    try:
        result = synthesize(inst, cfg, budget)
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    stats = result.stats
    print(f"outcome: {result.outcome.value}")
    if result.outcome is Outcome.FOUND:
        hs = result.halfspace
        print(f"k = {hs.k}")
        print(f"c = {hs.c}")
        _print_transition_lines(result.inductivity.per_transition)
        _print_separation(inst, hs, result.separator)
    print(
        f"iterations: {stats.iterations}, solver queries: {stats.solver_queries}, "
        f"wall: {stats.wall_seconds:.2f}s"
        + (", fast path" if stats.fast_path else "")
    )
    _write_json(args.json, result.to_json())
    if result.outcome is Outcome.FOUND:
        return EXIT_OK
    if result.outcome is Outcome.NO_SEPARATOR:
        print("no separating inductive half space exists for this instance")
        return EXIT_NEGATIVE
    print("search budget exhausted without a verdict")
    return EXIT_INCONCLUSIVE


def cmd_check(args) -> int:
    inst = _load(args)
    k = _read_k(args, inst)
    hs = HalfSpace(k, args.c)
    report = certify(inst, hs, oracle_points=0) if args.skip_oracle else certify(inst, hs)
    print(f"k = {hs.k}, c = {hs.c}, mode = {inst.mode.value}")
    _print_transition_lines(report.inductivity.per_transition)
    _print_separation(inst, hs, report.separator)
    # certify lists the oracle and the checker in the net's transition order
    for (name, verdict), exact in zip(
        report.oracle, report.inductivity.per_transition, strict=True
    ):
        if verdict is None:
            continue
        agree = "agrees" if verdict == exact.inductive else "DISAGREES"
        print(f"oracle {name}: {'inductive' if verdict else 'not inductive'} ({agree})")
    ok = report.ok
    print(f"verdict: {'certificate holds' if ok else 'certificate FAILS'}")
    for line in report.separator.failures():
        print(f"  {line}")
    doc = {"halfspace": hs.to_json(), "report": report.to_json()}
    _write_json(args.json, doc)
    return EXIT_OK if ok else EXIT_NEGATIVE


def cmd_constants(args) -> int:
    inst = _load(args)
    k = _read_k(args, inst)
    decreasing = [t.name for t in inst.net.transitions if dot(k, t.delta) < 0]
    if is_mixed(k) and decreasing:
        print(
            f"k = {k} mixes positive and negative entries while "
            f"{', '.join(decreasing)} strictly lower{'s' if len(decreasing) == 1 else ''} the "
            "scalar product; no threshold is inductive for such a vector"
        )
        return EXIT_INCONCLUSIVE
    report = constants_for_instance(inst, k)
    lo, hi = report.window
    if lo > hi:
        raise ValueError(
            f"empty separation window: k.m_init = {hi} is not above k.m_final = {lo - 1}"
        )
    print(f"k = {report.k}, mode = {inst.mode.value}")
    print(f"window: [{lo}, {hi}]  (thresholds separating m_final from m_init)")
    for name, cset in report.per_transition:
        print(f"transition {name}: {cset.to_text()}")
    print(f"intersection: {report.combined.to_text()}")
    if not report.cover_ok:
        print("cover mode requires k <= 0: no admissible threshold")
    elif report.chosen is None:
        print("no threshold works for every transition")
    else:
        print(f"chosen c = {report.chosen}")
    _write_json(args.json, report.to_json())
    return EXIT_NEGATIVE if report.chosen is None else EXIT_OK


def cmd_oracle(args) -> int:
    inst = _load(args)
    k = _read_k(args, inst)
    all_inductive = True
    for t in inst.net.transitions:
        r = oracle_check_transition(k, args.c, t, max_points=args.budget)
        all_inductive = all_inductive and r.inductive
        if r.inductive:
            print(f"transition {t.name}: inductive ({r.sums_explored} points)")
        elif r.witness is None:
            print(
                f"transition {t.name}: NOT inductive by the sign-mixed "
                "divisibility argument (no witness enumerated)"
            )
        else:
            _print_transition_lines([r])
    return EXIT_OK if all_inductive else EXIT_NEGATIVE


def cmd_explore(args) -> int:
    inst = _load(args)
    report = bounded_explore(inst, args.budget)
    print(f"outcome: {report.outcome.value}")
    print(f"states visited: {report.states_visited}")
    if report.steps_to_target is not None:
        print(f"steps to target: {report.steps_to_target}")
    if report.outcome is ExplorationOutcome.REACHED:
        return EXIT_OK
    if report.outcome is ExplorationOutcome.NOT_REACHED:
        return EXIT_NEGATIVE
    return EXIT_INCONCLUSIVE


def cmd_gen(args) -> int:
    if args.family == "nontrivial":
        inst = nontrivial_net(args.n, args.j)
        sys.stdout.write(format_instance(inst))
        return EXIT_OK
    if args.family == "ussp":
        w = _parse_vector(args.w)
        built = ussp_halfspace(w, args.d)
        if built is None:
            print(
                f"# gcd({', '.join(map(str, w))}) does not divide {args.d}: the equation has no "
                "solution; nothing to emit"
            )
            return EXIT_NEGATIVE
        net, hs = built
        t = net.transitions[0]
        inst = Instance(net, t.pre, t.post, Mode.REACH)
        sys.stdout.write(f"# inductivity of k = {hs.k}, c = {hs.c} on this net\n")
        sys.stdout.write(f"# decides solvability of {hs.k} . x = {args.d}\n")
        sys.stdout.write("# (init/target are placeholders; use `check --k --c`)\n")
        sys.stdout.write(format_instance(inst))
        return EXIT_OK
    inst = random_instance(
        args.seed,
        places=args.places,
        transitions=args.transitions,
        max_flow=args.max_flow,
        max_marking=args.max_marking,
        mode=Mode(args.mode) if args.mode else Mode.REACH,
    )
    sys.stdout.write(format_instance(inst))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="petrisep",
        description=(
            "Disprove Petri net reachability/coverability by finding a half "
            "space k.m >= c that contains the initial marking, excludes the "
            "target, and is invariant under every transition."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_k(p):
        p.add_argument(
            "--k",
            required=True,
            nargs="+",
            help="coefficients, e.g. --k 3,2 or --k -4 -4 -3",
        )

    def add_common(p, mode=True, jsonout=True):
        p.add_argument("file", help="net file (see README for the format)")
        if mode:
            p.add_argument(
                "--mode", choices=["reach", "cover"], help="override the file's mode"
            )
        if jsonout:
            p.add_argument(
                "--json",
                metavar="PATH",
                help="write JSON ('-' = stdout, and the report goes to stderr)",
            )

    p = sub.add_parser("synthesize", help="search for a separating half space")
    add_common(p)
    p.add_argument("--solver", help="SMT-LIB2 solver with push/pop on stdin, e.g. 'z3 -in'")
    p.add_argument("--timeout-ms", type=int, default=60_000, help="per solver query")
    p.add_argument(
        "--max-iters",
        type=int,
        default=LoopBudget.max_iterations,
        help="candidate vectors to try",
    )
    p.add_argument(
        "--max-seconds", type=float, default=LoopBudget.max_seconds, help="total wall budget"
    )
    p.add_argument(
        "--max-bound", type=int, help="box |k(i)| <= MAX_BOUND on every candidate; exhausted if dry"
    )
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("check", help="verify a given half space k, c")
    add_common(p)
    add_k(p)
    p.add_argument("--c", required=True, type=int, help="threshold")
    p.add_argument(
        "--skip-oracle", action="store_true", help="skip the brute-force cross-check"
    )
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "constants", help="all inductive thresholds for a coefficient vector"
    )
    add_common(p)
    add_k(p)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("oracle", help="brute-force inductivity check (small nets)")
    add_common(p, mode=False, jsonout=False)
    add_k(p)
    p.add_argument("--c", required=True, type=int, help="threshold")
    p.add_argument(
        "--budget", type=int, default=10_000_000, help="max enumeration points"
    )
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("explore", help="breadth-first search for the target marking")
    add_common(p, jsonout=False)
    p.add_argument("--budget", type=int, default=100_000, help="max stored markings")
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("gen", help="emit example nets in the net file format")
    gen_sub = p.add_subparsers(dest="family", required=True)

    g = gen_sub.add_parser("nontrivial", help="family with no all-trivial separator")
    g.add_argument("--n", type=int, required=True, help="places (>= 3)")
    g.add_argument("--j", type=int, default=None, help="distinguished transition (1-based)")
    g.set_defaults(func=cmd_gen)

    g = gen_sub.add_parser("ussp", help="net encoding solvability of w . x = d")
    g.add_argument(
        "--w", required=True, nargs="+", help="positive weights, e.g. --w 3,5"
    )
    g.add_argument("--d", type=int, required=True, help="right-hand side (>= 0)")
    g.set_defaults(func=cmd_gen)

    g = gen_sub.add_parser("random", help="seeded random instance")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--places", type=int, default=3)
    g.add_argument("--transitions", type=int, default=3)
    g.add_argument("--max-flow", type=int, default=4)
    g.add_argument("--max-marking", type=int, default=4)
    g.add_argument("--mode", choices=["reach", "cover"], default=None)
    g.set_defaults(func=cmd_gen)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    report = contextlib.nullcontext()
    if getattr(args, "json", None) == "-":
        # stdout carries the JSON document alone; the report lines go to stderr
        args.json = sys.stdout
        report = contextlib.redirect_stdout(sys.stderr)
    try:
        with report:
            return args.func(args)
    except OracleBudgetError as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (NetFormatError, StructureError, ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:
        print("environment error: out of memory", file=sys.stderr)
        return EXIT_SOLVER
