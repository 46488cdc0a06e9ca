"""A scripted stand-in for `z3 -in`, for testing the external solver pipe.

Reads one SMT-LIB2 command per line on stdin and understands only what
SmtSession sends: (echo "X") prints X; (push 1) / (pop 1) / (reset) keep a
stack of caps asserted as (<= (+ abs_k0 ...) N); (check-sat) answers from a
fixed model list, the first model whose |k| sum is within every cap, else
unsat; (get-value (k0 ...)) prints that model. Everything else is ignored,
and so is (echo "X") under --no-echo, like a solver that cannot echo.

    python fake_smt.py --models 6,4 3,2 --log PATH [--on-check unknown|hang|exit]
                       [--no-echo]

Each start appends "spawn" to the log, each (check-sat) "check-sat".
"""

import argparse
import re
import sys
import time

CAP = re.compile(r"\(assert \(<= (?:\(\+(?: abs_\w+)+\)|abs_\w+) (\d+)\)\)")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--models", nargs="*", default=[])
    parser.add_argument("--log", required=True)
    parser.add_argument(
        "--on-check", choices=["model", "unknown", "hang", "exit"], default="model"
    )
    parser.add_argument("--no-echo", action="store_true")
    args = parser.parse_args()
    models = [tuple(int(x) for x in m.split(",")) for m in args.models]

    def log(event: str) -> None:
        with open(args.log, "a") as fh:
            fh.write(event + "\n")

    def say(text: str) -> None:
        sys.stdout.write(text + "\n")
        sys.stdout.flush()

    log("spawn")
    caps = [[]]  # one list of caps per push frame
    chosen = None
    for line in sys.stdin:
        cmd = line.strip()
        if cmd.startswith("(echo "):
            if not args.no_echo:
                say(cmd[len('(echo "') : -len('")')])
        elif cmd == "(push 1)":
            caps.append([])
        elif cmd == "(pop 1)":
            caps.pop()
        elif cmd == "(reset)":
            caps = [[]]
        elif cmd == "(exit)":
            return
        elif cap := CAP.fullmatch(cmd):
            caps[-1].append(int(cap.group(1)))
        elif cmd == "(check-sat)":
            log("check-sat")
            if args.on_check == "exit":
                return
            if args.on_check == "hang":
                time.sleep(60)
            if args.on_check == "unknown":
                say("unknown")
                continue
            limit = min((c for frame in caps for c in frame), default=None)
            fits = [m for m in models if limit is None or sum(map(abs, m)) <= limit]
            chosen = fits[0] if fits else None
            say("sat" if chosen else "unsat")
        elif cmd.startswith("(get-value ("):
            names = cmd[len("(get-value (") : -2].split()
            pairs = " ".join(
                f"({n} {v})" if v >= 0 else f"({n} (- {-v}))" for n, v in zip(names, chosen)
            )
            say(f"({pairs})")


if __name__ == "__main__":
    main()
