"""Monte Carlo study harness: MSE and bias of IRF estimators against a
simulated population reference, reproducing the benchmark experiments.

Replication r always consumes the stream derived from (master_seed, r).
The paths of up to ``SIMULATION_BATCH`` replications are simulated together
in one batch, always in the calling process; the fixed batching fixes the
rounding of the simulation. With ``threads > 1`` the population chunks
and the fits and IRFs of each batch are split into contiguous shares over
the calling process and ``threads - 1`` forked worker processes. These run
only where ``os.fork`` exists, the calling process runs a single thread,
and BLAS is pinned to one thread (see the ``sievar`` package docstring);
otherwise the calling process does all the work. The moments are summed per
chunk of ``REPLICATION_CHUNK`` replications, in replication order, and the
chunk sums merged in chunk order, so results are bit-identical for any
thread count.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import islice

import numpy as np

from ._workers import can_fork, map_in_processes
from .basis import KnotVector, SievePlan
# fit_parametric and fit_two_step are not called here, but perfbench's tracer
# wraps them in this module
from .estimator import (  # noqa: F401
    FirstStageFit,
    FittedModel,
    _as_xy,
    _fit_stage_two,
    benchmark_true_form,
    first_stage,
    fit_parametric,
    fit_two_step,
    max0_prior_form,
)
from .irf import (
    IncompatibleShockError,
    IrfResult,
    RelaxationFn,
    ShockSpec,
    check_compatibility,
    estimated_irf,
    population_irf,
)
from .model import (
    PathDivergedError,
    StabilityWarning,
    builtin_dgp,
    derive_seed,
    simulate,
    simulate_batch,
)

__all__ = [
    "StudyConfig",
    "StudyResult",
    "default_study_config",
    "run_study",
    "run_study_variant_phi_shift",
    "target_mode",
    "derive_seed",
]

ESTIMATOR_TAGS = ("parametric_true", "parametric_max0", "sieve")
REPLICATION_CHUNK = 25
SIMULATION_BATCH = 250


@dataclass(frozen=True)
class StudyConfig:
    """Desk-scale defaults; `paper_scale()` switches to the published counts.

    ``threads`` caps the processes that the population reference's chunks
    and the replications' fits and IRFs run in: the calling process and up
    to ``threads - 1`` forked workers, when BLAS is pinned to one thread
    (see the module docstring). Results are identical for any value.
    """

    dgp_id: int
    n: int = 240
    mc_replications: int = 200
    pop_replications: int = 20_000
    deltas: tuple[float, ...] = (1.0,)
    relaxation: RelaxationFn = field(default_factory=lambda: RelaxationFn.symmetric_bump(3.0, 4.0))
    horizon: int = 12
    estimators: tuple[str, ...] = ("parametric_true", "sieve")
    knots: tuple[float, ...] = (0.0,)
    degree: int = 3
    domain: tuple[float, float] | None = None
    master_seed: int = 0
    burn_in: int = 500
    phi_shift: bool = False
    target_relaxed: bool = True
    estimator_relaxed: bool = True
    threads: int = 1
    max_failure_fraction: float = 0.01

    def __post_init__(self) -> None:
        object.__setattr__(self, "deltas", tuple(float(d) for d in self.deltas))
        object.__setattr__(self, "estimators", tuple(self.estimators))
        object.__setattr__(self, "knots", tuple(float(k) for k in self.knots))
        unknown = set(self.estimators) - set(ESTIMATOR_TAGS)
        if unknown:
            raise ValueError(f"unknown estimator tags {sorted(unknown)}")
        if self.mc_replications < 1:
            raise ValueError("mc_replications must be positive")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")
        if self.burn_in < 0:
            raise ValueError("burn_in must be non-negative")
        if self.horizon < 0:
            raise ValueError("horizon must be non-negative")
        if self.n <= self.horizon + self.p:
            raise ValueError(f"n must exceed horizon + lag order ({self.horizon + self.p})")
        if not 0.0 <= self.max_failure_fraction <= 1.0:
            raise ValueError("max_failure_fraction must lie in [0, 1]")

    @cached_property
    def p(self) -> int:
        """Lag order of the generating process, which every fit uses."""
        return builtin_dgp(self.dgp_id).p

    def paper_scale(self) -> "StudyConfig":
        return replace(self, mc_replications=10_000, pop_replications=100_000)


def default_study_config(dgp_id: int, **overrides) -> StudyConfig:
    """Published per-DGP settings: knots, sample size, shock and clip scale."""
    if dgp_id == 7:
        base = dict(
            dgp_id=7,
            n=2400,
            deltas=(2.0,),
            relaxation=RelaxationFn.symmetric_bump(5.0, 3.9),
            knots=(-3.0, -1.0, 1.0, 3.0),
            estimators=("parametric_true", "parametric_max0", "sieve"),
        )
    else:
        base = dict(dgp_id=dgp_id)
    base.update(overrides)
    return StudyConfig(**base)


@dataclass(frozen=True)
class StudyResult:
    """Moments over the successful replications. ``clamped`` sums their
    estimated IRFs' ``clamped`` counts (spline evaluations outside the knot
    domain in the iterated paths); ``failure_causes`` counts the failed
    replications by exception class name. ``processes`` is the number of
    processes the fits and IRFs were split over: 1 when the worker
    processes could not run."""

    config: StudyConfig
    population: dict[float, IrfResult]
    mse: dict[tuple[str, float], np.ndarray]
    bias: dict[tuple[str, float], np.ndarray]
    se: dict[tuple[str, float], np.ndarray]
    n_ok: int
    failed: tuple[int, ...]
    clamped: int
    failure_causes: dict[str, int]
    processes: int

    def rows(self):
        """Flat (estimator, delta, var, h, mse, bias, se, n_ok) records."""
        out = []
        for (tag, delta), mse in sorted(self.mse.items()):
            bias = self.bias[(tag, delta)]
            se = self.se[(tag, delta)]
            names = self.population[delta].variables
            for h in range(mse.shape[0]):
                for v, name in enumerate(names):
                    out.append((tag, delta, name, h, mse[h, v], bias[h, v], se[h, v], self.n_ok))
        return out


def _study_plan(cfg: StudyConfig, x: np.ndarray) -> SievePlan:
    lo, hi = (float(x.min()), float(x.max())) if cfg.domain is None else cfg.domain
    kv = KnotVector(degree=cfg.degree, interior=cfg.knots, lo=lo, hi=hi)
    return SievePlan(x_blocks=tuple(kv for _ in range(cfg.p + 1)))


def _fit_one(cfg: StudyConfig, tag: str, path, first: FirstStageFit | None = None) -> FittedModel:
    """Estimator ``tag``'s fit to ``path``: the same bits as ``fit_two_step``
    or ``fit_parametric``. A replication fits its first stage once and passes
    it as ``first`` to each of its estimators."""
    x, y, _ = _as_xy(path)
    if tag == "sieve":
        layout = _study_plan(cfg, x)
    elif tag == "parametric_true":
        layout = benchmark_true_form(cfg.dgp_id)
        if cfg.phi_shift and cfg.dgp_id == 7:
            layout = replace(layout, terms=tuple((j, "smooth_phi_shift") for j, _ in layout.terms))
    elif tag == "parametric_max0":
        layout = max0_prior_form(cfg.p)
    else:
        raise ValueError(f"unknown estimator tag {tag!r}")
    if first is None:
        first = first_stage(x, y, cfg.p)
    return _fit_stage_two(layout, x, y, first.residuals, first, cfg.p)


def _simulate_batch(spec, cfg: StudyConfig, seeds: list[int]) -> list:
    """Paths of one simulation batch. When a row diverges, the paths are
    simulated one by one, and a path that fails holds its failure cause."""
    try:
        return simulate_batch(spec, cfg.n, seeds, cfg.burn_in)
    except PathDivergedError:
        pass
    paths: list = []
    for seed in seeds:
        try:
            paths.append(simulate(spec, cfg.n, seed, cfg.burn_in))
        except (RuntimeError, np.linalg.LinAlgError) as exc:
            paths.append(type(exc).__name__)
    return paths


def run_study(cfg: StudyConfig) -> StudyResult:
    """Population reference once per shock, then simulate-fit-IRF per
    replication and accumulate moments of (estimated - population)."""
    spec = builtin_dgp(cfg.dgp_id, phi_shift=cfg.phi_shift)
    support = spec.innovation.support(0)
    if cfg.relaxation.kind != "constant_one":
        for delta in cfg.deltas:
            verdict = check_compatibility(cfg.relaxation, delta, support)
            if not verdict.compatible:
                raise IncompatibleShockError(
                    f"relaxation incompatible with delta={delta:g} "
                    f"(worst margin {verdict.worst_margin:.4g})"
                )

    target_rho = cfg.relaxation if cfg.target_relaxed else RelaxationFn.constant_one()
    est_rho = cfg.relaxation if cfg.estimator_relaxed else RelaxationFn.constant_one()
    population: dict[float, IrfResult] = {}
    for k, delta in enumerate(cfg.deltas):
        population[delta] = population_irf(
            spec,
            ShockSpec(delta, target_rho, cfg.horizon),
            replications=cfg.pop_replications,
            seed=derive_seed(cfg.master_seed, 1, k),
            burn_in=cfg.burn_in,
            threads=cfg.threads,
        )

    shape = (cfg.horizon + 1, spec.d)
    keys = [(tag, delta) for tag in cfg.estimators for delta in cfg.deltas]
    m = cfg.mc_replications
    sums = {k: np.zeros(shape) for k in keys}
    sq = {k: np.zeros(shape) for k in keys}
    n_ok = clamped = 0
    failed: list[int] = []
    causes: Counter[str] = Counter()
    processes = min(cfg.threads, m) if can_fork() else 1

    def replicate(path) -> tuple[dict, int] | str:
        """Errors and clamped count of one replication, or its failure cause."""
        if isinstance(path, str):
            return path
        try:
            first = first_stage(path.x, path.y, cfg.p)
            fits = {tag: _fit_one(cfg, tag, path, first) for tag in cfg.estimators}
            errs, rep_clamped = {}, 0
            for tag, delta in keys:
                est = estimated_irf(fits[tag], path, ShockSpec(delta, est_rho, cfg.horizon))
                errs[(tag, delta)] = est.values - population[delta].values
                rep_clamped += est.clamped
        except (RuntimeError, np.linalg.LinAlgError) as exc:
            return type(exc).__name__
        return errs, rep_clamped

    def outcomes():
        seeds = [derive_seed(cfg.master_seed, 2, r) for r in range(m)]
        for start in range(0, m, SIMULATION_BATCH):
            paths = _simulate_batch(spec, cfg, seeds[start : start + SIMULATION_BATCH])
            yield from map_in_processes(replicate, paths, processes)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        warnings.simplefilter("ignore", RuntimeWarning)
        results = enumerate(outcomes())
        for _ in range(0, m, REPLICATION_CHUNK):
            # per-chunk partial sums, merged in chunk order
            chunk_sums = {k: np.zeros(shape) for k in keys}
            chunk_sq = {k: np.zeros(shape) for k in keys}
            for r, outcome in islice(results, REPLICATION_CHUNK):
                if isinstance(outcome, str):
                    failed.append(r)
                    causes[outcome] += 1
                    continue
                errs, rep_clamped = outcome
                for k in keys:
                    chunk_sums[k] += errs[k]
                    chunk_sq[k] += errs[k] ** 2
                clamped += rep_clamped
                n_ok += 1
            for k in keys:
                sums[k] += chunk_sums[k]
                sq[k] += chunk_sq[k]
    if len(failed) > cfg.max_failure_fraction * m:
        raise RuntimeError(
            f"{len(failed)} of {m} replications failed "
            f"(threshold {cfg.max_failure_fraction:.0%}); first failures: {failed[:5]}"
        )
    if n_ok == 0:
        # no moment exists; with max_failure_fraction = 1 the check above passes
        raise RuntimeError(f"all {m} replications failed; causes: {dict(causes)}")

    mse = {k: sq[k] / n_ok for k in keys}
    bias = {k: sums[k] / n_ok for k in keys}
    se = {k: np.sqrt(np.maximum(mse[k] - bias[k] ** 2, 0.0) / n_ok) for k in keys}
    return StudyResult(
        config=cfg,
        population=population,
        mse=mse,
        bias=bias,
        se=se,
        n_ok=n_ok,
        failed=tuple(failed),
        clamped=clamped,
        failure_causes=dict(causes),
        processes=processes,
    )


def run_study_variant_phi_shift(cfg: StudyConfig) -> StudyResult:
    """DGP 7 with the +1-shifted smooth map, which max(0, x) tracks closely."""
    if cfg.dgp_id != 7:
        raise ValueError("the phi-shift variant is defined for DGP 7")
    return run_study(replace(cfg, phi_shift=True))


def target_mode(cfg: StudyConfig, mode: str) -> StudyResult:
    """Robustness runs targeting relaxed or non-relaxed population responses."""
    if mode == "relaxed_target":
        return run_study(replace(cfg, target_relaxed=True))
    if mode == "nonrelaxed_target":
        return run_study(replace(cfg, target_relaxed=False))
    raise ValueError(f"unknown target mode {mode!r}")
