"""The benchmark's workloads: configs built from a seed, the timed call into
sievar's public API, its operation count and its output checks.

Every workload is a closed loop: the runner issues the next call only after
the previous one has returned. All calls of one run repeat the same inputs,
so their result digests must agree. sievar receives only the configs built
here, never the benchmark seed itself.

Import ``program`` and call ``program.load()`` before importing this module.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import sievar

REFERENCE_PATH = Path(__file__).with_name("reference.json")
# Outputs may sit this many Monte Carlo standard errors from the reference.
SE_MULTIPLE = 6.0
PAPER_MC_REPLICATIONS = 10_000
PAPER_POP_REPLICATIONS = 100_000


class PhaseSplitError(Exception):
    """run_study did not call population_irf exactly once per shock."""


@dataclass
class Outcome:
    """One timed call: its result (None when it failed), operations and timings."""

    result: object
    attempted: int
    failed: int
    timings: dict[str, float] = field(default_factory=dict)


def load_reference(name: str) -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)[name]


def digest(rows) -> str:
    """sha256 of the result rows; floats are written with repr, so bit-exact."""
    text = json.dumps(rows, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _finite(label: str, values) -> list[str]:
    arr = np.asarray(values, dtype=float)
    return [] if np.all(np.isfinite(arr)) else [f"{label}: non-finite values"]


def _within(label: str, values, reference, se) -> list[str]:
    """Each cell within SE_MULTIPLE combined standard errors of its reference."""
    gap = np.abs(np.asarray(values, dtype=float) - np.asarray(reference, dtype=float))
    tol = SE_MULTIPLE * np.asarray(se, dtype=float)
    bad = np.argwhere(gap > tol)
    if bad.size == 0:
        return []
    cell = tuple(int(i) for i in bad[0])
    return [
        f"{label}: {bad.shape[0]} cells beyond {SE_MULTIPLE:g} SE of the reference, "
        f"first at {cell}: |{gap[cell]:.4g}| > {tol[cell]:.4g}"
    ]


def _require_compatible(rho, delta: float, spec) -> None:
    if not sievar.check_compatibility(rho, delta, spec.innovation.support(0)).compatible:
        raise sievar.IncompatibleShockError(f"delta={delta:g} is incompatible with the innovation support")


def _irf_rows(result) -> list:
    return [
        [h, name, float(result.values[h, v]), float(result.mc_se[h, v])]
        for h in range(result.values.shape[0])
        for v, name in enumerate(result.variables)
    ]


class StudyDgp7:
    """run_study on DGP 7: the paper's misspecification study, all three estimators."""

    name = "study_dgp7"
    threads = 2
    # Multiples of 2 x REPLICATION_CHUNK (25) and 2 x the population chunk
    # (4096), so chunks split evenly over two threads.
    mc_replications = 50
    pop_replications = 8192

    def __init__(self, seed: int):
        self.seed = seed
        self.config = sievar.default_study_config(
            7,
            mc_replications=self.mc_replications,
            pop_replications=self.pop_replications,
            threads=self.threads,
            master_seed=seed,
        )

    def setup(self) -> None:
        cfg = self.config
        spec = sievar.builtin_dgp(cfg.dgp_id)
        for delta in cfg.deltas:
            _require_compatible(cfg.relaxation, delta, spec)
        self.run(replace(cfg, mc_replications=2, pop_replications=4096))

    def run(self, cfg=None) -> Outcome:
        """Time run_study and split it at the end of its last population_irf call.

        The split is the one place that defines the study's phases: the traced
        run reads ``replication_phase_start`` and ``replication_phase_s`` from
        the returned timings.
        """
        cfg = cfg or self.config
        calls: list[tuple[float, float]] = []
        population_irf = sievar.study.population_irf

        def timed_population_irf(*args, **kwargs):
            start = time.perf_counter()
            try:
                return population_irf(*args, **kwargs)
            finally:
                calls.append((start, time.perf_counter()))

        sievar.study.population_irf = timed_population_irf
        try:
            start = time.perf_counter()
            try:
                result = sievar.study.run_study(cfg)
            except RuntimeError:
                # run_study aborts when too many replications fail
                return Outcome(None, cfg.mc_replications, cfg.mc_replications)
            end = time.perf_counter()
        finally:
            sievar.study.population_irf = population_irf
        if len(calls) != len(cfg.deltas):
            raise PhaseSplitError(
                f"population_irf ran {len(calls)} times for {len(cfg.deltas)} shocks; "
                "the population/replication phase split is no longer valid"
            )
        pop_s = sum(e - s for s, e in calls)
        rep_start = max(e for _, e in calls)
        rep_s = end - rep_start
        n_shocks = len(cfg.deltas)
        mc_rep_ms = 1e3 * rep_s / cfg.mc_replications
        pop_rep_us = 1e6 * pop_s / (cfg.pop_replications * n_shocks)
        timings = {
            "wall_s": end - start,
            "mc_rep_ms": mc_rep_ms,
            "pop_rep_us": pop_rep_us,
            "paper_scale_s": PAPER_MC_REPLICATIONS * mc_rep_ms / 1e3
            + PAPER_POP_REPLICATIONS * n_shocks * pop_rep_us / 1e6,
            "replication_phase_start": rep_start,
            "replication_phase_s": rep_s,
        }
        return Outcome(result, cfg.mc_replications, len(result.failed), timings)

    def rows(self, result) -> list:
        study_rows = [[tag, delta, var, h, float(mse), float(bias), float(se), n_ok]
                      for tag, delta, var, h, mse, bias, se, n_ok in result.rows()]
        pop_rows = [[delta] + row for delta, irf in sorted(result.population.items()) for row in _irf_rows(irf)]
        return [study_rows, pop_rows]

    def check(self, result) -> list[str]:
        ref = load_reference(self.name)
        errors: list[str] = []
        if result.n_ok + len(result.failed) != self.config.mc_replications:
            errors.append(
                f"n_ok {result.n_ok} + failed {len(result.failed)} != "
                f"{self.config.mc_replications} replications attempted"
            )
        for delta, pop in result.population.items():
            key = repr(delta)
            errors += _finite(f"population {key}", [pop.values, pop.mc_se])
            ref_pop = ref["population"][key]
            pop_se = np.hypot(pop.mc_se, ref_pop["mc_se"])
            errors += _within(f"population {key}", pop.values, ref_pop["values"], pop_se)
            for tag in self.config.estimators:
                label = f"{tag} delta={key}"
                errors += _finite(label, [result.mse[(tag, delta)], result.bias[(tag, delta)], result.se[(tag, delta)]])
                ref_est = ref["estimators"][tag][key]
                se = np.sqrt(result.se[(tag, delta)] ** 2 + np.square(ref_est["se"]) + pop_se**2)
                errors += _within(f"{label} bias", result.bias[(tag, delta)], ref_est["bias"], se)
        return errors


class DiagnoseDgp2:
    """estimate_delta_r then find_h_star on DGP 2 with `sievar diagnose` defaults."""

    name = "diagnose_dgp2"
    threads = 1
    couplings = 2000
    h_cap = 10
    samples = 200

    def __init__(self, seed: int):
        self.seed = seed
        self.spec = sievar.builtin_dgp(2)

    def setup(self) -> None:
        self.run(couplings=100, samples=2)

    def run(self, couplings: int | None = None, samples: int | None = None) -> Outcome:
        calls = (
            lambda: sievar.diagnostics.estimate_delta_r(
                self.spec, replications=couplings or self.couplings, seed=self.seed
            ),
            lambda: sievar.diagnostics.find_h_star(
                self.spec, h_cap=self.h_cap, samples=samples or self.samples, seed=self.seed
            ),
        )
        results = []
        start = time.perf_counter()
        for call in calls:
            try:
                results.append(call())
            except (sievar.PathDivergedError, np.linalg.LinAlgError):
                results.append(None)
        wall = time.perf_counter() - start
        failed = sum(r is None for r in results)
        if failed:
            return Outcome(None, len(calls), failed)
        return Outcome(tuple(results), len(calls), 0, {"wall_s": wall})

    def rows(self, result) -> list:
        profile, report = result
        return [
            [float(v) for v in profile.delta_hat],
            [profile.a1, profile.a2, profile.fit_residual],
            [report.h_star, report.contractive, report.c_z, report.c_eps, list(report.decay)],
        ]

    def check(self, result) -> list[str]:
        ref = load_reference(self.name)
        profile, report = result
        errors = _finite("delta_hat", [*profile.delta_hat, profile.a1, profile.a2])
        errors += _finite("decay", [report.c_z, report.c_eps, *report.decay])
        if report.h_star != ref["h_star"]:
            errors.append(f"h_star {report.h_star} != stored {ref['h_star']}")
        # the reference spread is across seeds, so it is the standard error of one run
        se = np.asarray(ref["delta_hat_sd"]) * np.sqrt(1.0 + 1.0 / ref["seeds"])
        errors += _within("delta_hat", profile.delta_hat, ref["delta_hat_mean"], se)
        return errors


WORKLOADS = {w.name: w for w in (StudyDgp7, DiagnoseDgp2)}
