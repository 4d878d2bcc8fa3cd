"""Benchmark self-test.

For each workload, two traced runs with the same seed must pass their
output checks and report identical counts (tracing.EXACT_COUNTS), and an
untraced run with a second seed must pass its output checks. Run from the
checkout root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys

import program

program.load()

import run  # noqa: E402
from tracing import EXACT_COUNTS  # noqa: E402

FIRST_SEED = 11
SECOND_SEED = 12
SECONDS = 1


def bench(workload: str, seed: int, trace: int) -> dict:
    return run.run_fresh("--workload", workload, "--seed", str(seed), "--seconds", str(SECONDS),
                         "--trace", str(trace), timeout=600)


def main() -> int:
    problems = []
    for workload in run.WORKLOAD_NAMES:
        traced = [bench(workload, FIRST_SEED, 1) for _ in range(2)]
        other = bench(workload, SECOND_SEED, 0)
        for label, result in (("traced run 1", traced[0]), ("traced run 2", traced[1]),
                              (f"seed {SECOND_SEED}", other)):
            if not result["correct"]:
                problems.append(f"{workload} {label}: output checks failed")
        for name in EXACT_COUNTS:
            a, b = (r["metrics"][name]["value"] for r in traced)
            status = "same" if a == b else "DIFFERENT"
            print(f"{workload} {name}: {a} / {b} {status}")
            if a != b:
                problems.append(f"{workload} {name}: {a} != {b}")
        print(f"{workload} seed {SECOND_SEED}: correct={other['correct']}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
