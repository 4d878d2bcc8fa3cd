"""Regenerate reference.json, the values the benchmark's output checks compare against.

Each reference is a large run on a seed of its own, stored with its Monte
Carlo standard error. Run from the checkout root:

    python3 perfbench/make_reference.py

It takes a few minutes on two cores.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace

import program

sievar = program.load()

import numpy as np  # noqa: E402  (after BLAS threads are pinned)

import workloads  # noqa: E402

REFERENCE_SEED = 987_654_321
STUDY_MC_REPLICATIONS = 1000
STUDY_POP_REPLICATIONS = 16 * 8192
DIAGNOSE_SEEDS = 20
H_STAR_SEEDS = 5


def _population(result) -> dict:
    return {"values": result.values.tolist(), "mc_se": result.mc_se.tolist()}


def study_reference() -> dict:
    cfg = replace(
        workloads.StudyDgp7(REFERENCE_SEED).config,
        mc_replications=STUDY_MC_REPLICATIONS,
        pop_replications=STUDY_POP_REPLICATIONS,
    )
    result = sievar.run_study(cfg)
    estimators = {
        tag: {
            repr(delta): {
                "bias": result.bias[(tag, delta)].tolist(),
                "se": result.se[(tag, delta)].tolist(),
            }
            for delta in cfg.deltas
        }
        for tag in cfg.estimators
    }
    return {
        "master_seed": REFERENCE_SEED,
        "mc_replications": cfg.mc_replications,
        "pop_replications": cfg.pop_replications,
        "n_ok": result.n_ok,
        "population": {repr(d): _population(p) for d, p in result.population.items()},
        "estimators": estimators,
    }


def diagnose_reference() -> dict:
    wl = workloads.DiagnoseDgp2(REFERENCE_SEED)
    profiles = np.array([
        sievar.estimate_delta_r(wl.spec, replications=wl.couplings, seed=REFERENCE_SEED + i).delta_hat
        for i in range(DIAGNOSE_SEEDS)
    ])
    h_stars = {
        sievar.find_h_star(wl.spec, h_cap=wl.h_cap, samples=wl.samples, seed=REFERENCE_SEED + i).h_star
        for i in range(H_STAR_SEEDS)
    }
    if len(h_stars) != 1:
        raise SystemExit(f"h_star is not stable across seeds: {sorted(h_stars, key=str)}")
    return {
        "first_seed": REFERENCE_SEED,
        "seeds": DIAGNOSE_SEEDS,
        "couplings": wl.couplings,
        "delta_hat_mean": profiles.mean(axis=0).tolist(),
        "delta_hat_sd": profiles.std(axis=0, ddof=1).tolist(),
        "h_star": h_stars.pop(),
    }


def main() -> int:
    reference = {
        "diagnose_dgp2": diagnose_reference(),
        "study_dgp7": study_reference(),
    }
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
