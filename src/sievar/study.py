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
otherwise the calling process does all the work.

A process runs its share in stacked groups of consecutive replications,
as many as fit ``GROUP_COLUMNS`` columns of one sample each. Every
replication fits its first stage once and its estimators through the one
least-squares solver, each with its own ridge fallback. Then, per
estimator, the sample check of the group's fits is one ``_forward`` step
and the shocked paths of each shock one ``_forward`` call, the fits side
by side on their own columns (``irf._check_samples`` and
``irf._responses``). A replication's errors have the same bits whichever
replications share its group, and a group whose stacked call fails reruns
its replications one at a time, so each failure stays with its own
replication. The errors are kept in replication order and reduced once at
the end, so results are bit-identical for any thread count.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property

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
# estimated_irf is not called here either, but the tracer wraps it here too
from .irf import (  # noqa: F401
    IncompatibleShockError,
    IrfResult,
    RelaxationFn,
    ShockSpec,
    _check_samples,
    _impact,
    _responses,
    _sample,
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


def _replicate_group(cfg: StudyConfig, paths: list, shocks, targets) -> tuple[list, int]:
    """Each replication's errors, an (estimators x deltas, H+1, d) array
    against ``targets``, or its failure cause, for the paths (or the
    simulation's failure causes) of one group; and the clamped count of the
    successful replications. A replication fits its first stage once and
    passes it to each of its estimators; a fit that raises
    ``RuntimeError``, ``LinAlgError`` or ``ValueError`` (such as a sample
    whose range misses an interior knot; ``_check_sieve`` has raised the
    config's own errors before) fails its replication."""
    outcomes = list(paths)
    fitted = []
    for i, path in enumerate(paths):
        if isinstance(path, str):
            continue
        try:
            first = first_stage(path.x, path.y, cfg.p)
            fitted.append((i, path, [_fit_one(cfg, tag, path, first) for tag in cfg.estimators]))
        except (RuntimeError, ValueError, np.linalg.LinAlgError) as exc:
            outcomes[i] = type(exc).__name__
    errors, clamped = _respond(fitted, shocks, targets)
    for (i, _, _), outcome in zip(fitted, errors):
        outcomes[i] = outcome
    return outcomes, clamped


def _respond(fitted: list, shocks, targets) -> tuple[list, int]:
    """The errors of the fitted replications of a group, or their failure
    causes, and the clamped count of the successful ones. Per estimator the
    group's fits run stacked: one sample check and one ``_responses`` call.
    A group whose stacked call raises ``RuntimeError`` (a diverged path) or
    ``LinAlgError`` reruns its replications one at a time, so each failure
    stays with its own replication and keeps its cause."""
    if not fitted:
        return [], 0
    try:
        errors = np.empty((len(fitted), len(fitted[0][2]) * len(shocks)) + targets.shape[1:])
        clamped = 0
        h = shocks[0].horizon
        # a replication's estimators share its first stage, and so its shocks
        impacts = [
            [_impact(shock, fits[0].first_stage.residuals[: path.n - fits[0].p - h]) for _, path, fits in fitted]
            for shock in shocks
        ]
        for e, fits in enumerate(zip(*(fits for _, _, fits in fitted))):
            plans = [fit._step_plan for fit in fits]
            samples = [_sample(fit, path.x, path.y) for fit, (_, path, _) in zip(fits, fitted)]
            _check_samples(plans, samples, True)
            values, counts = _responses(plans, samples, impacts, h, True, GROUP_COLUMNS)
            for k, v in enumerate(values):
                errors[:, e * len(shocks) + k] = v - targets[k]
            clamped += sum(counts)
        return list(errors), clamped
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        if len(fitted) == 1:
            return [type(exc).__name__], 0
    outcomes, clamped = [], 0
    for one in fitted:
        out, count = _respond([one], shocks, targets)
        outcomes += out
        clamped += count
    return outcomes, clamped


def _moments(errors: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bias, MSE and the MC standard error of the bias from (n, keys, H+1,
    d) errors in replication order, one key at a time so the temporaries
    stay small. The replications are summed pairwise, along a contiguous
    axis, and the variance is the two-pass one with its rounding correction
    (Chan, Golub & LeVeque 1983)."""
    n = errors.shape[0]
    bias, mse, se = (np.empty(errors.shape[1:]) for _ in range(3))
    for i in range(errors.shape[1]):
        # a (H+1, d, n) copy, each (horizon, component) row one contiguous run
        # of replications; it is written in place below
        e = np.moveaxis(errors[:, i], 0, -1).copy()
        bias[i] = e.sum(axis=-1) / n
        square = np.square(e)
        mse[i] = square.sum(axis=-1) / n
        dev = np.subtract(e, bias[i][..., None], out=e)
        var = (np.square(dev, out=square).sum(axis=-1) - np.square(dev.sum(axis=-1)) / n) / n
        se[i] = np.sqrt(np.maximum(var, 0.0) / n)
    return bias, mse, se


def run_study(cfg: StudyConfig) -> StudyResult:
    """Population reference once per shock, then simulate-fit-IRF per
    replication, keeping each replication's errors (estimated - population)
    and reducing them once at the end."""
    spec = builtin_dgp(cfg.dgp_id, phi_shift=cfg.phi_shift)
    _check_sieve(cfg, spec.d_y)
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

    shocks = tuple(ShockSpec(delta, est_rho, cfg.horizon) for delta in cfg.deltas)
    targets = np.stack([population[delta].values for delta in cfg.deltas])
    keys = [(tag, delta) for tag in cfg.estimators for delta in cfg.deltas]
    m = cfg.mc_replications
    errors = np.empty((m, len(keys)) + targets.shape[1:])
    clamped = 0
    failed: list[int] = []
    causes: Counter[str] = Counter()
    processes = min(cfg.threads, m) if can_fork() else 1
    group = max(1, GROUP_COLUMNS // (cfg.n - cfg.p))

    def replicate(share: list) -> tuple[list, int]:
        """Outcomes of one process's share of a batch, in as few groups of
        at most ``group`` replications as it takes, of near-equal size."""
        outcomes, count = [], 0
        groups = -(-len(share) // group)
        cuts = [len(share) * i // groups for i in range(groups + 1)]
        for start, stop in zip(cuts, cuts[1:]):
            out, c = _replicate_group(cfg, share[start:stop], shocks, targets)
            outcomes += out
            count += c
        return outcomes, count

    seeds = [derive_seed(cfg.master_seed, 2, r) for r in range(m)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        warnings.simplefilter("ignore", RuntimeWarning)
        for start in range(0, m, SIMULATION_BATCH):
            paths = _simulate_batch(spec, cfg, seeds[start : start + SIMULATION_BATCH])
            shares = min(processes, len(paths))
            cuts = [len(paths) * i // shares for i in range(shares + 1)]
            parts = [paths[a:b] for a, b in zip(cuts[:-1], cuts[1:])]
            r = start
            for outcomes, count in map_in_processes(replicate, parts, shares):
                clamped += count
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
