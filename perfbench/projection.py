"""Check that paper_scale_s may extrapolate study_dgp7 linearly in the MC count.

Runs the standard study_dgp7 call before and after each call at 4x the MC
replications. Each 4x replication phase is compared with 4x the mean of the
two standard phases around it, so a slow drift of the machine's speed
cancels; the median of these ratios should be within 10 % of 1. Run from
the checkout root:

    python3 perfbench/projection.py
"""

from __future__ import annotations

import json
import statistics
import sys
from dataclasses import replace

import program

program.load()

import workloads  # noqa: E402

SEED = 5
PAIRS = 3
SCALE = 4
TOLERANCE = 0.10


def main() -> int:
    study = workloads.StudyDgp7(SEED)
    study.setup()
    scaled = replace(study.config, mc_replications=SCALE * study.config.mc_replications)

    def phase(cfg) -> float:
        outcome = study.run(cfg)
        if outcome.result is None:
            raise RuntimeError(f"study call with {cfg.mc_replications} replications failed")
        return outcome.timings["replication_phase_s"]

    base = [phase(study.config)]
    big = []
    for _ in range(PAIRS):
        big.append(phase(scaled))
        base.append(phase(study.config))
    ratios = [b / (SCALE * (before + after) / 2) for b, before, after in zip(big, base, base[1:])]
    ratio = statistics.median(ratios)
    report = {
        "seed": SEED,
        "pairs": PAIRS,
        "mc_replications": [study.config.mc_replications, scaled.mc_replications],
        "replication_phase_s": {"standard": base, "scaled": big},
        "ratios": ratios,
        "ratio_to_linear": ratio,
        "linear": abs(ratio - 1.0) <= TOLERANCE,
    }
    print(json.dumps(report))
    return 0 if report["linear"] else 1


if __name__ == "__main__":
    sys.exit(main())
