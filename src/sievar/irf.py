"""Nonlinear impulse responses via forward iteration with relaxed shocks.

The impact perturbation replaces the structural innovation eps_1t by
eps_1t + delta * rho(eps_1t); the shocked path reuses the baseline's
innovations, and the response is the average shocked-minus-baseline
difference. The population response iterates both paths. The plug-in sample
response of a fit that reproduces its sample from its residuals takes the
observed continuation as the baseline and iterates only the shocked paths.
A closed-form moving-average recursion is provided as the linear oracle.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from ._workers import can_fork, map_in_processes
from .estimator import _as_xy
# tracer-only imports (perfbench wraps them here): iterate_paths
from .model import (  # noqa: F401
    Divergence,
    LagPolynomial,
    ModelSpec,
    _forward,
    _finite,
    _innovations,
    _stack,
    _union,
    derive_seed,
    iterate_paths,
    philox,
)

__all__ = [
    "RelaxationFn",
    "ShockSpec",
    "Compatibility",
    "IrfResult",
    "IncompatibleShockError",
    "SupportWarning",
    "relax_eval",
    "check_compatibility",
    "population_irf",
    "estimated_irf",
    "linear_irf",
    "linearized_reduction",
]

SINGULARITY_GUARD = 1e-12

# steps per stationary burn-in draw block: 1.6 MiB at d=2 and 4096 columns;
# blocks of 8 to 100 steps run alike, 500 steps runs slower
DRAW_STEPS = 25


class IncompatibleShockError(ValueError):
    """The relaxation function cannot keep the shocked innovation in support."""


class SupportWarning(RuntimeWarning):
    """A non-relaxed shock may push the impact outside the bounded support."""


@dataclass(frozen=True)
class RelaxationFn:
    """Shock relaxation map rho: innovation support -> [0, 1].

    ``symmetric_bump(c, alpha)`` is 1{|e| < c} exp(1 + (|e/c|^alpha - 1)^-1),
    ``interval_bump(a, b, alpha)`` the analogous bump on [a, b], and
    ``constant_one`` the classical non-relaxed shock (unbounded support).
    """

    kind: str
    c: float | None = None
    alpha: float | None = None
    a: float | None = None
    b: float | None = None

    def __post_init__(self) -> None:
        if self.kind == "constant_one":
            return
        if self.kind == "symmetric_bump":
            if self.c is None or self.alpha is None or self.c <= 0 or self.alpha <= 0:
                raise ValueError("symmetric bump needs half-width c > 0 and exponent alpha > 0")
            return
        if self.kind == "interval_bump":
            if (
                self.a is None or self.b is None or self.alpha is None
                or self.b <= self.a or self.alpha <= 0
            ):
                raise ValueError("interval bump needs a < b and exponent alpha > 0")
            return
        raise ValueError(f"unknown relaxation kind {self.kind!r}")

    @classmethod
    def constant_one(cls) -> "RelaxationFn":
        return cls(kind="constant_one")

    @classmethod
    def symmetric_bump(cls, c: float, alpha: float) -> "RelaxationFn":
        return cls(kind="symmetric_bump", c=c, alpha=alpha)

    @classmethod
    def interval_bump(cls, a: float, b: float, alpha: float) -> "RelaxationFn":
        return cls(kind="interval_bump", a=a, b=b, alpha=alpha)

    def __call__(self, e: np.ndarray | float) -> np.ndarray | float:
        return relax_eval(self, e)

    def describe(self) -> str:
        if self.kind == "constant_one":
            return "constant_one"
        if self.kind == "symmetric_bump":
            return f"bump(c={self.c:g},alpha={self.alpha:g})"
        return f"bump(a={self.a:g},b={self.b:g},alpha={self.alpha:g})"


def relax_eval(rho: RelaxationFn, e: np.ndarray | float) -> np.ndarray | float:
    """Evaluate rho; the boundary value is 0 by continuity (1e-12 guard)."""
    scalar = np.ndim(e) == 0
    e_arr = np.atleast_1d(np.asarray(e, dtype=float))
    if rho.kind == "constant_one":
        out = np.ones_like(e_arr)
        return float(out[0]) if scalar else out
    if rho.kind == "symmetric_bump":
        u = np.abs(e_arr / rho.c) ** rho.alpha
    else:
        mid = np.abs(2.0 * (e_arr - rho.b) / (rho.b - rho.a) + 1.0)
        u = mid**rho.alpha
    inside = u < 1.0 - SINGULARITY_GUARD
    out = np.zeros_like(e_arr)
    out[inside] = np.exp(1.0 + 1.0 / (u[inside] - 1.0))
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class Compatibility:
    compatible: bool
    worst_margin: float
    worst_point: float


def check_compatibility(
    rho: RelaxationFn, delta: float, support: tuple[float, float]
) -> Compatibility:
    """Grid search with local refinement of e -> e + rho(e) * delta.

    A positive shock is compatible when the map never exceeds the upper
    support bound, a negative one when it never undershoots the lower bound.
    """
    a, b = float(support[0]), float(support[1])
    if b <= a:
        raise ValueError("support must be an interval [a, b] with a < b")
    if delta == 0.0:
        return Compatibility(True, 0.0, a)
    sign = 1.0 if delta > 0 else -1.0

    def objective(e: np.ndarray) -> np.ndarray:
        return sign * (e + np.asarray(relax_eval(rho, e)) * delta)

    lo, hi = a, b
    grid = np.linspace(lo, hi, 10_000)
    best = grid[np.argmax(objective(grid))]
    step = (hi - lo) / 9_999
    for _ in range(3):
        lo_r = max(a, best - step)
        hi_r = min(b, best + step)
        grid = np.linspace(lo_r, hi_r, 1_001)
        best = grid[np.argmax(objective(grid))]
        step = (hi_r - lo_r) / 1_000
    worst = float(objective(np.array([best]))[0])
    margin = (b if delta > 0 else -a) - worst
    return Compatibility(bool(margin >= 0.0), float(margin), float(best))


def _require_compatible(rho: RelaxationFn, delta: float, support: tuple[float, float]) -> None:
    """Raise ``IncompatibleShockError``, with the worst margin, when
    ``check_compatibility`` finds that the shocked innovation can leave the
    support."""
    verdict = check_compatibility(rho, delta, support)
    if not verdict.compatible:
        raise IncompatibleShockError(
            f"relaxation incompatible with delta={delta:g} (worst margin {verdict.worst_margin:.6g})"
        )


@dataclass(frozen=True)
class ShockSpec:
    """Impulse size, relaxation function, and horizon."""

    delta: float
    relaxation: RelaxationFn
    horizon: int

    def __post_init__(self) -> None:
        if self.horizon < 0:
            raise ValueError("horizon must be non-negative")


@dataclass(frozen=True)
class IrfResult:
    """(H+1) x d response matrix with provenance. ``clamped`` counts the
    spline evaluations outside the knot domain in the iterated paths."""

    values: np.ndarray
    variables: tuple[str, ...]
    method: str
    delta: float
    relaxation: str
    n_used: int
    seed: int | None = None
    clamped: int = 0
    mc_se: np.ndarray | None = None

    @property
    def horizon(self) -> int:
        return self.values.shape[0] - 1


def variable_names(d_y: int) -> tuple[str, ...]:
    return ("X",) + tuple(f"Y{i + 1}" for i in range(d_y))


def _warn_if_unrelaxed(spec: ModelSpec, shock: ShockSpec, stacklevel: int = 3) -> None:
    if shock.relaxation.kind == "constant_one" and shock.delta != 0.0:
        warnings.warn(
            "non-relaxed shock on a bounded innovation support: "
            "support violation possible at impact",
            SupportWarning,
            stacklevel=stacklevel,
        )


def _columns(a: np.ndarray, rows: np.ndarray, width: int) -> np.ndarray:
    """(width, d, B) array whose entry [s, :, b] is column rows[b] + s of the
    (d, n) array ``a``: a read-only window view when the rows are
    consecutive, else a gather. Each [s] is a (d, B) block with B
    contiguous."""
    if rows[-1] - rows[0] == rows.size - 1:
        # built directly, a tenth of the cost of a sliding_window_view; the
        # ndarray constructor checks that the view stays inside ``a``
        a = np.ascontiguousarray(a)
        step = a.strides[1]
        view = np.ndarray((width, a.shape[0], rows.size), a.dtype, a, int(rows[0]) * step, (step, a.strides[0], step))
        view.flags.writeable = False
        return view
    return np.take(a, rows + np.arange(width)[:, None], axis=1).transpose(1, 0, 2)


def _draw_steps(spec: ModelSpec, gen, steps: int, size: int, block: np.ndarray) -> np.ndarray:
    """The stream's next ``steps`` steps of ``size`` columns as a (steps, d,
    size) view of ``block``: each step holds the draws of each component in
    turn (``model._innovations``)."""
    shape = (steps, spec.d, size)
    return _innovations(spec, gen, shape, axis=1, out=block[: steps * spec.d * size].reshape(shape))


def _burn_in(
    spec: ModelSpec, gen, size: int, steps: int, block: np.ndarray | None = None
) -> np.ndarray:
    """The (max(p, 1), d, size) states that ``size`` columns reach from a
    zero state in ``steps`` steps of the stream: a stationary draw when
    ``steps`` is long. The steps are drawn ``DRAW_STEPS`` at a time into one
    reused ``block`` (allocated here if none is given), so memory does not
    grow with ``steps`` and the states do not depend on the block size. A
    diverging column raises ``PathDivergedError`` at the burn-in's step."""
    if block is None:
        block = np.empty(min(DRAW_STEPS, steps) * spec.d * size)
    states = np.zeros((max(spec.p, 1), spec.d, size))
    for done in range(0, steps, DRAW_STEPS):
        eps = _draw_steps(spec, gen, min(DRAW_STEPS, steps - done), size, block)
        states, _ = _finite(*_forward(spec, states, eps, keep_path=False), after=done)
    return states


def _two_pass(e: np.ndarray, square: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The pairwise sums of ``e`` over its last, contiguous axis and the sums
    of squared deviations from their means, two-pass with the rounding
    correction (Chan, Golub & LeVeque 1983). Overwrites ``e`` with the
    deviations and ``square``, if given, with their squares."""
    n = e.shape[-1]
    total = e.sum(axis=-1)
    dev = np.subtract(e, (total / n)[..., None], out=e)
    return total, np.square(dev, out=square).sum(axis=-1) - np.square(dev.sum(axis=-1)) / n


def population_irf(
    spec: ModelSpec,
    shock: ShockSpec,
    replications: int = 100_000,
    seed: int = 0,
    burn_in: int = 500,
    threads: int = 1,
    chunk: int = 4096,
) -> IrfResult:
    """Unconditional IRF by averaging over fresh stationary histories.

    Every replication draws its own burn-in history and innovation future.
    Chunk k of ``chunk`` replications, B of them, reads its own Philox
    stream keyed by ``derive_seed(seed, k)``, step-major: each step holds
    the B draws of each component in turn, clipped to the innovation bound,
    component j scaled by sigma_j. The first ``burn_in`` steps carry each
    replication from a zero state to its history (``_burn_in``, which the
    dependence diagnostics share; each process allocates its draw block on
    first use), the last H + 1 are its future, and the shock falls on
    component 0 of the future's first step. The chunks run in up to
    ``threads`` processes, as ``run_study``'s replications do. Each chunk
    sums its (T, d, B) differences pairwise over the contiguous batch axis
    (error O(log B u) rather than O(B u)), with their squared deviations
    from its mean (``_two_pass``, as ``run_study``'s moments). The chunks
    merge in chunk order, the deviations by Chan, Golub & LeVeque's update,
    so the result is independent of the process count and ``mc_se`` loses
    no digits to cancellation. A diverging column raises
    ``PathDivergedError``.
    """
    if replications < 1:
        raise ValueError("replications must be at least 1")
    if chunk < 1:
        raise ValueError("chunk must be at least 1")
    if burn_in < 0:
        raise ValueError("burn_in must be non-negative")
    if threads < 1:
        raise ValueError("threads must be at least 1")
    _warn_if_unrelaxed(spec, shock)
    h = shock.horizon
    d = spec.d
    relaxed = shock.relaxation.kind != "constant_one"
    if relaxed:
        _require_compatible(shock.relaxation, shock.delta, spec.innovation.support(0))

    @functools.cache
    def block() -> np.ndarray:
        # one per process: the first chunk allocates it, so after the fork
        return np.empty(max(DRAW_STEPS, h + 1) * d * min(chunk, replications))

    def run_chunk(start: int):
        size = min(chunk, replications - start)
        gen = philox(derive_seed(seed, start // chunk))
        states = _burn_in(spec, gen, size, burn_in, block())
        eps = _draw_steps(spec, gen, h + 1, size, block())
        w = shock.delta * np.asarray(relax_eval(shock.relaxation, eps[0, 0]))
        if relaxed:
            lo, hi = spec.innovation.support(0)
            impact = eps[0, 0] + w
            bad = np.count_nonzero((impact < lo - 1e-9) | (impact > hi + 1e-9))
            if bad:
                raise IncompatibleShockError(
                    f"{bad} shocked impacts left the innovation support although the "
                    "compatibility check passed"
                )
        # the shocked path reuses the baseline's innovations, and the
        # differences and their squares overwrite the paths
        base, clamp_b = _finite(*_forward(spec, states, eps))
        shocked, clamp_s = _finite(*_forward(spec, states, eps, impact=w))
        total, m2 = _two_pass(np.subtract(shocked, base, out=shocked), base)
        return size, total, m2, clamp_b + clamp_s

    starts = list(range(0, replications, chunk))
    parts = map_in_processes(run_chunk, starts, threads if can_fork() else 1)
    total, m2 = np.zeros((h + 1, d)), np.zeros((h + 1, d))
    done = clamped = 0
    for size, s, m2_k, cl in parts:
        if done:
            # Chan, Golub & LeVeque's update: add the squared deviation of the
            # chunk's mean from the running mean
            m2_k += np.square(s / size - total / done) * (done * size / (done + size))
        m2 += m2_k
        total += s
        done += size
        clamped += cl
    return IrfResult(
        values=total / replications,
        variables=variable_names(spec.d_y),
        method="population",
        delta=shock.delta,
        relaxation=shock.relaxation.describe(),
        n_used=replications,
        seed=seed,
        clamped=clamped,
        mc_se=np.sqrt(np.maximum(m2 / replications, 0.0) / replications),
    )


def estimated_irf(fit, data, shock: ShockSpec, chunk: int = 4096) -> IrfResult:
    """Plug-in sample IRF: the mean over impact times t of the shocked path
    minus the baseline path, both continuing the observed history at t.

    Every impact time with a full H-step residual future contributes (the
    common-t convention). A first-stage fit reproduces its sample from its
    residuals, so its baseline is the observed window z[t+p .. t+p+H] and
    only the impact times with a nonzero shock delta * rho(eps_1t) are
    iterated (a zero shock gives an exactly zero response); an infeasible
    fit iterates both paths from every impact time. They run ``chunk`` at a
    time, each chunk's differences summed pairwise over the contiguous batch
    axis and the chunk sums in order. ``clamped`` counts the clamped spline
    evaluations of the iterated paths. A fit whose one-step predictions
    from the observed histories miss the sample (in every column, or in X
    alone for an infeasible fit) raises ``ValueError``, and one whose paths
    diverge ``PathDivergedError``. The fit is a group of one in the stacked
    path of ``run_study`` (``_check_samples``, ``_responses``), so a
    replication's response there has the bits of this call with ``chunk``
    at least its count of shocked impact times.
    """
    return _estimated_irfs(fit, data, (shock,), chunk, stacklevel=4)[0]


def _estimated_irfs(fit, data, shocks, chunk: int = 4096, stacklevel: int = 3) -> list[IrfResult]:
    """``estimated_irf`` for each of ``shocks``, which share one horizon,
    with one sample check. A warning points ``stacklevel`` frames up from
    its own call, by default at this function's caller."""
    if chunk < 1:
        raise ValueError("chunk must be at least 1")
    x, y, _ = _as_xy(data)
    if fit.first_stage is None or fit.residuals2 is None:
        raise ValueError("estimated_irf needs a fitted model with residuals")
    n = x.size
    if fit.n_obs != n:
        raise ValueError("fit was not produced from this sample (length mismatch)")
    h = shocks[0].horizon
    for shock in shocks:
        _warn_if_unrelaxed(fit, shock, stacklevel)
        if shock.horizon >= n - fit.p:
            raise ValueError("horizon exceeds sample")
        if shock.horizon != h:
            raise ValueError("the shocks must share one horizon")
    sample = _sample(fit, x, y)
    # the X step is the first stage for every fit kind; the Y steps reproduce
    # the sample only when stage II used the first-stage residuals
    replay = fit.generated == "first_stage"
    impacts = [[_impact(shock, fit.first_stage.residuals[: n - fit.p - h])] for shock in shocks]
    values, clamped = _finite(*_responses([fit._step_plan], [sample], impacts, h, replay, chunk))
    return [
        IrfResult(
            values=v[0],
            variables=variable_names(fit.d_y),
            method="estimated",
            delta=shock.delta,
            relaxation=shock.relaxation.describe(),
            n_used=n - fit.p - h,
            seed=None,
            clamped=c,
        )
        for v, c, shock in zip(values, clamped, shocks)
    ]


def _sample(fit, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sample and the fit's residuals component-major, as the plug-in
    IRF reads them; residual t is that of time t + p."""
    return np.vstack([x, y.T]), np.vstack([fit.first_stage.residuals, fit.residuals2.T])


def _impact(shock: ShockSpec, eps_1: np.ndarray) -> np.ndarray:
    """The shock delta * rho(eps_1t) at each impact time."""
    return shock.delta * np.asarray(relax_eval(shock.relaxation, eps_1))


def _check_samples(plans, samples, replay: bool) -> Divergence | None:
    """Raise ``ValueError`` unless each fit reproduces its sample: one step
    from every observed history must give the observation, in every
    component, or in X alone when ``replay`` is false. ``plans`` are the
    fits' step plans, of one impact layout, and ``samples`` their
    ``_sample`` arrays; all fits step side by side in one ``_forward`` call.
    Returns the ``Divergence`` of the fits whose step diverged, unchecked."""
    p = plans[0].p
    states = [_columns(zt, np.arange(zt.shape[1] - p), p) for zt, _ in samples]
    step, _, diverged = _forward(_stack(plans), states, [rt[None] for _, rt in samples])
    comps = slice(None) if replay else slice(0, 1)
    failed, start = np.zeros(len(samples), dtype=bool), 0
    for m, (zt, _) in enumerate(samples):
        stop = start + zt.shape[1] - p
        failed[m] = diverged is not None and diverged.columns[start:stop].any()
        miss = float(np.max(np.abs(step[0, comps, start:stop] - zt[comps, p:])))
        if not (failed[m] or miss <= 1e-8 * (1.0 + float(np.max(np.abs(zt))))):
            raise ValueError(
                f"fit was not produced from this sample: its residuals "
                f"miss the observations by {miss:.3g}"
            )
        start = stop
    return None if diverged is None else Divergence(failed, diverged.step)


def _responses(plans, samples, impacts, horizon: int, replay: bool, chunk: int):
    """The plug-in responses of fits of one impact layout to their samples,
    after one stacked sample check of all of them (``_check_samples``, which
    raises ``ValueError`` for a fit of another sample).

    ``impacts[k][m]`` is fit m's shock at each of its impact times under
    shock k (``_impact``). Returns, per shock, an (M, H+1, d) array of each
    fit's mean response (``estimated_irf``'s values) and the count of
    clamped spline evaluations in the iterated paths; and the ``Divergence``
    of the fits whose sample check or paths diverged, at the step of the
    first such call, the check's first of all.
    A replay fit iterates only its impact times with a nonzero shock. Each
    fit's iterated impact times are cut into pieces of at most ``chunk``,
    and whole pieces run side by side, up to ``chunk`` columns per
    ``_forward`` call. A fit sums its own contiguous columns pairwise and
    its pieces in order, so its response is the same whichever fits share
    its calls, even one that diverges.
    """
    p, h = plans[0].p, horizon
    values, clamped = [], []
    first = _check_samples(plans, samples, replay)
    failed = np.zeros(len(samples), dtype=bool) if first is None else first.columns
    for shock_rows in impacts:
        pieces = []
        for m, w in enumerate(shock_rows):
            rows = np.flatnonzero(w) if replay else np.arange(w.size)
            pieces += [(m, rows[i : i + chunk], w) for i in range(0, rows.size, chunk)]
        calls, width = [], chunk
        for piece in pieces:
            if width + piece[1].size > chunk:
                calls.append([])
                width = 0
            calls[-1].append(piece)
            width += piece[1].size
        total = np.zeros((len(samples), h + 1, samples[0][0].shape[0]))
        count = 0
        for call in calls:
            # from impact t: the p-state history before it, its residual
            # future and its observed continuation
            plan = _stack([plans[m] for m, _, _ in call])
            state = [_columns(samples[m][0], live, p) for m, live, _ in call]
            eps = [_columns(samples[m][1], live, h + 1) for m, live, _ in call]
            impact = np.concatenate([w[live] for _, live, w in call])
            base_path, clamp_b, diverged = (None, 0, None) if replay else _forward(plan, state, eps)
            shocked, clamp_s, shocked_diverged = _forward(plan, state, eps, impact=impact)
            count += clamp_b + clamp_s
            diverged = _union(diverged, shocked_diverged)
            first = first or diverged
            start = 0
            for m, live, _ in call:
                cols = slice(start, start + live.size)
                failed[m] |= diverged is not None and diverged.columns[cols].any()
                base = _columns(samples[m][0], live + p, h + 1) if replay else base_path[:, :, cols]
                diff = np.subtract(shocked[:, :, cols], base, out=shocked[:, :, cols])
                total[m] += diff.sum(axis=2)
                start = cols.stop
        for m, w in enumerate(shock_rows):
            total[m] /= w.size
        values.append(total)
        clamped.append(count)
    return values, clamped, None if first is None else Divergence(failed, first.step)


def linear_irf(
    lags: LagPolynomial, b0_21: np.ndarray, delta: float, horizon: int
) -> IrfResult:
    """Closed-form linear IRF from the moving-average recursion.

    The impact column is (1, b0_21)' and Psi_h follows the companion power
    recursion; requires a stable linear part.
    """
    if lags.spectral_radius() >= 1.0:
        raise ValueError("explosive linear part: companion spectral radius >= 1")
    d = lags.d
    b0_21 = np.asarray(b0_21, dtype=float).reshape(d - 1)
    e1 = np.concatenate([[1.0], b0_21])
    psi: list[np.ndarray] = [np.eye(d)]
    a = lags.coeffs
    for h in range(1, horizon + 1):
        acc = np.zeros((d, d))
        for k in range(1, min(h, lags.p) + 1):
            acc += a[k - 1] @ psi[h - k]
        psi.append(acc)
    values = np.stack([delta * (m @ e1) for m in psi])
    return IrfResult(
        values=values,
        variables=variable_names(d - 1),
        method="linear_closed_form",
        delta=delta,
        relaxation="constant_one",
        n_used=0,
    )


def linearized_reduction(spec: ModelSpec) -> tuple[LagPolynomial, np.ndarray, np.ndarray]:
    """Fold linear impact terms into a lag-only system plus shock loading.

    Contemporaneous identity terms route through the structural innovation
    (raising the effective loading) and through the X-equation lags; identity
    terms at lags j >= 1 add to the corresponding lag matrices.
    """
    d, p = spec.d, spec.p
    lam = np.zeros((spec.d_y, p + 1))
    for i in range(spec.d_y):
        for j in range(p + 1):
            lam[i, j] = sum(t.scale for t in spec.impact[i][j] if t.kind == "identity")
    a = spec.lags.coeffs.copy() if p > 0 else np.zeros((0, d, d))
    for k in range(1, p + 1):
        for i in range(spec.d_y):
            a[k - 1][1 + i, 0] += lam[i, k]
            a[k - 1][1 + i, :] += lam[i, 0] * spec.lags.coeffs[k - 1][0, :]
    b_eff = spec.b0_21 + lam[:, 0]
    mu_eff = spec.mu.copy()
    mu_eff[1:] += lam[:, 0] * spec.mu[0]
    return LagPolynomial(a), b_eff, mu_eff
