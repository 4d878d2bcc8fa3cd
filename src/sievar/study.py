"""Monte Carlo study harness: MSE and bias of IRF estimators against a
simulated population reference, reproducing the benchmark experiments.

Replication r always consumes the stream derived from (master_seed, r).
The paths of up to ``SIMULATION_BATCH`` replications are simulated together
in the calling process; the fixed batching fixes their rounding. Each batch
is cut once into near-equal groups of consecutive replications that fit
within ``GROUP_COLUMNS`` columns of one sample each, as many per process.
With ``threads > 1`` the population chunks and these groups are split into
contiguous shares over the calling process and ``threads - 1`` forked
workers (``map_in_processes``), where ``os.fork`` exists and BLAS is pinned
to one thread (see the ``sievar`` package docstring); so each process runs
a near-equal contiguous share of the batch.

A group is fitted all at once: one stacked stage-I regression, then per
estimator one stacked (R, k + d_y, n - p) design, whose sieve blocks come
from one pass over the group's knot tables (its knot vectors share the
config's interior knots, so one span lookup serves every replication's
points), and one call of the one least-squares solver,
``estimator._lstsq``: a stacked QR of each [X | y], a rank rule on the
singular values of each R (rank below k when one is at most 1e-10 times
the largest) and a stacked triangular solve; a rank-deficient replication
alone takes its ridge fallback and its ``regularized`` flag. A
replication whose fit fails (a sample whose range misses an interior knot,
a non-finite design) fails alone. Per estimator, the group's fits then
take one ``irf._responses`` call: one stacked sample check and one stacked
``_forward`` call per shock, each fit on its own columns. Every step of
both is elementwise or one LAPACK call per replication, so a replication's
fits and errors have the same bits whichever replications share its group,
and equal those of ``fit_two_step``/``fit_parametric`` and
``estimated_irf``, which are groups of one of the same code.
``model._forward`` marks the columns that diverge and runs the others on:
a diverged row of a simulation batch, or a replication whose fits
diverge, fails alone with cause ``PathDivergedError``, and nothing is
rerun. The errors are kept in replication order and reduced once at the
end, so results are bit-identical for any thread count.
"""

from __future__ import annotations

import time
import warnings
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property, partial

import numpy as np

from ._workers import can_fork, map_in_processes
from .basis import KnotVector, SievePlan
# tracer-only imports (perfbench wraps them here): check_compatibility, estimated_irf, fit_parametric, fit_two_step, simulate
from .estimator import (  # noqa: F401
    _stage_one,
    _stage_two,
    benchmark_true_form,
    fit_parametric,
    fit_two_step,
    max0_prior_form,
)
from .irf import (  # noqa: F401
    IrfResult,
    RelaxationFn,
    ShockSpec,
    _impact,
    _require_compatible,
    _responses,
    _sample,
    _two_pass,
    check_compatibility,
    estimated_irf,
    population_irf,
)
from .model import (  # noqa: F401
    PathDivergedError,
    StabilityWarning,
    _simulate_rows,
    builtin_dgp,
    derive_seed,
    simulate,
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
SIMULATION_BATCH = 250
# columns per stacked _forward call of a group, sized by the study_dgp7
# benchmark's peak RSS (n = 2400, 2 vCPUs): groups of one, 6,144, 8,192 and
# 16,384 columns read about 48.0, 48.4, 49.7 and 52.1 MiB against the
# unstacked 47.9, and 8,192 columns ran no faster than 6,144
GROUP_COLUMNS = 6144


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
        if not self.estimators:
            raise ValueError("estimators must not be empty")
        if not self.deltas:
            raise ValueError("deltas must not be empty")
        if self.mc_replications < 1:
            raise ValueError("mc_replications must be positive")
        if self.pop_replications < 1:
            raise ValueError("pop_replications must be positive")
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
    """Moments over the successful replications. ``clamped`` sums the
    ``clamped`` counts of the estimated IRFs that the study iterated (spline
    evaluations outside the knot domain in the iterated paths), a diverged
    replication's included; ``failure_causes`` counts the failed
    replications by exception class name; ``regularized`` counts per
    estimator the successful replications whose stage-I or stage-II solve
    took the ridge fallback. ``processes`` is the number of
    processes the fits and IRFs were split over: 1 when the worker
    processes could not run. ``stage_seconds`` holds the wall seconds of
    the population reference (``"population"``), of the batches'
    simulation in the calling process (``"simulation"``) and of their fits
    and responses (``"fit_and_response"``); it is not a moment, so neither
    ``rows`` nor the CSV holds it."""

    config: StudyConfig
    population: dict[float, IrfResult]
    mse: dict[tuple[str, float], np.ndarray]
    bias: dict[tuple[str, float], np.ndarray]
    se: dict[tuple[str, float], np.ndarray]
    n_ok: int
    failed: tuple[int, ...]
    clamped: int
    failure_causes: dict[str, int]
    regularized: dict[str, int]
    processes: int
    stage_seconds: dict[str, float]

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


def _check_sieve(cfg: StudyConfig, d_y: int) -> None:
    """Raise, before any work, the sieve's ``ValueError`` that the config
    alone decides: knots that are not finite and increasing, or not inside
    ``cfg.domain`` when one is given, and a design as wide as the usable
    sample. What is left to a fit, a sample whose range misses a knot,
    fails only its replication."""
    if "sieve" not in cfg.estimators:
        return
    knots = cfg.knots or (0.0,)
    lo, hi = cfg.domain if cfg.domain is not None else (min(knots) - 1.0, max(knots) + 1.0)
    if _study_plan(cfg, np.array([lo, hi])).k_total(d_y) >= cfg.n - cfg.p:
        raise ValueError("overparameterized sieve: K_total must be below the usable sample size")


def _layout(cfg: StudyConfig, tag: str, path):
    """Estimator ``tag``'s design layout for ``path``."""
    if tag == "sieve":
        return _study_plan(cfg, path.x)
    if tag == "parametric_true":
        layout = benchmark_true_form(cfg.dgp_id)
        if cfg.phi_shift and cfg.dgp_id == 7:
            layout = replace(layout, terms=tuple((j, "smooth_phi_shift") for j, _ in layout.terms))
        return layout
    if tag == "parametric_max0":
        return max0_prior_form(cfg.p)
    raise ValueError(f"unknown estimator tag {tag!r}")


def _samples(paths) -> tuple[np.ndarray, np.ndarray]:
    """The (R, n) X and (R, d_y, n) Y paths of a group's samples."""
    return np.stack([path.x for path in paths]), np.stack([path.y.T for path in paths])


def _fit_group(cfg: StudyConfig, tag: str, paths, firsts=None) -> list:
    """Estimator ``tag``'s fits to ``paths``, all at once: per path its
    ``FittedModel``, with the bits of ``fit_two_step`` or
    ``fit_parametric``, or the exception that fails its replication (a
    sample whose range misses an interior knot, say). ``firsts`` are the
    paths' stage-I fits, which a replication's estimators share; they are
    fitted here when not given."""
    x, y = _samples(paths)
    if firsts is None:
        firsts = _stage_one(x, y, cfg.p)
    # a replication whose first stage failed keeps that failure
    outcomes = list(firsts)
    layouts, kept = [], []
    for i, (path, first) in enumerate(zip(paths, firsts)):
        if isinstance(first, Exception):
            continue
        try:
            layouts.append(_layout(cfg, tag, path))
            kept.append(i)
        except ValueError as exc:
            outcomes[i] = exc
    if kept:
        for i, fit in zip(kept, _stage_two(layouts, x[kept], y[kept], [firsts[i] for i in kept], cfg.p)):
            outcomes[i] = fit
    return outcomes


def _replicate_group(cfg: StudyConfig, paths: list, shocks, targets) -> tuple[list, int, list[int]]:
    """Each replication's errors, an (estimators x deltas, H+1, d) array
    against ``targets``, or its failure cause, for the paths (or the
    simulation's failure causes) of one group; the clamped count of its
    responses; and per estimator the count of its successful replications
    whose stage-I or stage-II solve took the ridge. The group fits its
    first stage once for all its estimators, then each estimator at once
    (``_fit_group``); a fit that fails with ``RuntimeError``,
    ``LinAlgError`` or ``ValueError`` (``_check_sieve`` raised the
    config's own errors) fails its replication, which its later estimators
    skip. Per estimator the group's fits then run stacked in one
    ``_responses`` call, sample check included; a replication any of whose
    fits diverges there fails with ``PathDivergedError``, and the others
    keep their errors."""
    outcomes = list(paths)
    live = [i for i, path in enumerate(paths) if not isinstance(path, str)]
    fits: dict[int, list] = {i: [] for i in live}
    firsts = _stage_one(*_samples([paths[i] for i in live]), cfg.p) if live else []
    for tag in cfg.estimators:
        if not live:
            break
        for i, outcome in zip(live, _fit_group(cfg, tag, [paths[i] for i in live], firsts)):
            if isinstance(outcome, (RuntimeError, ValueError, np.linalg.LinAlgError)):
                outcomes[i] = type(outcome).__name__
                del fits[i]
            elif isinstance(outcome, Exception):
                raise outcome
            else:
                fits[i].append(outcome)
        firsts = [first for i, first in zip(live, firsts) if i in fits]
        live = [i for i in live if i in fits]
    if not live:
        return outcomes, 0, [0] * len(cfg.estimators)
    errors = np.empty((len(live), len(cfg.estimators) * len(shocks)) + targets.shape[1:])
    failed, clamped, h = np.zeros(len(live), dtype=bool), 0, cfg.horizon
    # a replication's estimators share its first stage, and so its shocks
    impacts = [
        [_impact(shock, fits[i][0].first_stage.residuals[: paths[i].n - cfg.p - h]) for i in live]
        for shock in shocks
    ]
    for e in range(len(cfg.estimators)):
        plans = [fits[i][e]._step_plan for i in live]
        samples = [_sample(fits[i][e], paths[i].x, paths[i].y) for i in live]
        values, counts, diverged = _responses(plans, samples, impacts, h, True, GROUP_COLUMNS)
        if diverged:
            failed |= diverged.columns
        for k, v in enumerate(values):
            errors[:, e * len(shocks) + k] = v - targets[k]
        clamped += sum(counts)
    for i, bad, error in zip(live, failed, errors):
        outcomes[i] = PathDivergedError.__name__ if bad else error
    kept = [i for i, bad in zip(live, failed) if not bad]
    return outcomes, clamped, [sum(fits[i][e].regularized for i in kept) for e in range(len(cfg.estimators))]


def _moments(errors: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bias, MSE and the MC standard error of the bias from (n, keys, H+1,
    d) errors in replication order, one key at a time so the temporaries
    stay small. The replications are summed pairwise, along a contiguous
    axis, and the variance is the two-pass one (``irf._two_pass``)."""
    n = errors.shape[0]
    bias, mse, se = (np.empty(errors.shape[1:]) for _ in range(3))
    for i in range(errors.shape[1]):
        # a (H+1, d, n) copy, each (horizon, component) row one contiguous run
        # of replications; it is written in place below
        e = np.moveaxis(errors[:, i], 0, -1).copy()
        square = np.square(e)
        mse[i] = square.sum(axis=-1) / n
        total, m2 = _two_pass(e, square)
        bias[i] = total / n
        se[i] = np.sqrt(np.maximum(m2 / n, 0.0) / n)
    return bias, mse, se


def run_study(cfg: StudyConfig) -> StudyResult:
    """Population reference once per shock, then simulate-fit-IRF per
    replication, keeping each replication's errors (estimated - population)
    and reducing them once at the end."""
    spec = builtin_dgp(cfg.dgp_id, phi_shift=cfg.phi_shift)
    _check_sieve(cfg, spec.d_y)
    if cfg.relaxation.kind != "constant_one":
        for delta in cfg.deltas:
            _require_compatible(cfg.relaxation, delta, spec.innovation.support(0))

    target_rho = cfg.relaxation if cfg.target_relaxed else RelaxationFn.constant_one()
    est_rho = cfg.relaxation if cfg.estimator_relaxed else RelaxationFn.constant_one()
    population: dict[float, IrfResult] = {}
    began = time.perf_counter()
    for k, delta in enumerate(cfg.deltas):
        population[delta] = population_irf(
            spec,
            ShockSpec(delta, target_rho, cfg.horizon),
            replications=cfg.pop_replications,
            seed=derive_seed(cfg.master_seed, 1, k),
            burn_in=cfg.burn_in,
            threads=cfg.threads,
        )

    stage_seconds = {"population": time.perf_counter() - began, "simulation": 0.0, "fit_and_response": 0.0}

    shocks = tuple(ShockSpec(delta, est_rho, cfg.horizon) for delta in cfg.deltas)
    targets = np.stack([population[delta].values for delta in cfg.deltas])
    keys = [(tag, delta) for tag in cfg.estimators for delta in cfg.deltas]
    m = cfg.mc_replications
    errors = np.empty((m, len(keys)) + targets.shape[1:])
    clamped = 0
    failed: list[int] = []
    causes: Counter[str] = Counter()
    regularized = dict.fromkeys(cfg.estimators, 0)
    processes = min(cfg.threads, m) if can_fork() else 1
    group = max(1, GROUP_COLUMNS // (cfg.n - cfg.p))
    replicate = partial(_replicate_group, cfg, shocks=shocks, targets=targets)
    seeds = [derive_seed(cfg.master_seed, 2, r) for r in range(m)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        warnings.simplefilter("ignore", RuntimeWarning)
        for start in range(0, m, SIMULATION_BATCH):
            began = time.perf_counter()
            paths, diverged = _simulate_rows(spec, cfg.n, seeds[start : start + SIMULATION_BATCH], cfg.burn_in)
            simulated = time.perf_counter()
            stage_seconds["simulation"] += simulated - began
            if diverged:
                paths = [PathDivergedError.__name__ if bad else p for p, bad in zip(paths, diverged.columns)]
            # near-equal groups of at most ``group``, as many per process, so
            # that each process's contiguous share is len(paths) * i // processes
            k = min(len(paths), processes * -(-len(paths) // (group * processes)))
            groups = [paths[len(paths) * i // k : len(paths) * (i + 1) // k] for i in range(k)]
            r = start
            results = map_in_processes(replicate, groups, processes)
            stage_seconds["fit_and_response"] += time.perf_counter() - simulated
            for outcomes, count, ridge in results:
                clamped += count
                for tag, ridged in zip(cfg.estimators, ridge):
                    regularized[tag] += ridged
                for outcome in outcomes:
                    if isinstance(outcome, str):
                        failed.append(r)
                        causes[outcome] += 1
                    else:
                        errors[r] = outcome
                    r += 1
    if len(failed) > cfg.max_failure_fraction * m:
        raise RuntimeError(
            f"{len(failed)} of {m} replications failed "
            f"(threshold {cfg.max_failure_fraction:.0%}); first failures: {failed[:5]}; "
            f"causes: {dict(causes)}"
        )
    n_ok = m - len(failed)
    if n_ok == 0:
        # no moment exists; with max_failure_fraction = 1 the check above passes
        raise RuntimeError(f"all {m} replications failed; causes: {dict(causes)}")

    bias, mse, se = _moments(np.delete(errors, failed, axis=0) if failed else errors)
    return StudyResult(
        config=cfg,
        population=population,
        mse={key: mse[i] for i, key in enumerate(keys)},
        bias={key: bias[i] for i, key in enumerate(keys)},
        se={key: se[i] for i, key in enumerate(keys)},
        n_ok=n_ok,
        failed=tuple(failed),
        clamped=clamped,
        failure_causes=dict(causes),
        regularized=regularized,
        processes=processes,
        stage_seconds=stage_seconds,
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
