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
# iterate_paths is not called here, but perfbench's tracer wraps it in this module
from .model import (  # noqa: F401
    LagPolynomial,
    ModelSpec,
    _forward,
    derive_seed,
    draw_clipped,
    iterate_paths,
    philox,
    scale_innovations,
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

# steps per population draw block: 1.6 MiB at d=2 and a 4096-replication chunk;
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


def _warn_if_unrelaxed(spec: ModelSpec, shock: ShockSpec) -> None:
    if shock.relaxation.kind == "constant_one" and shock.delta != 0.0:
        warnings.warn(
            "non-relaxed shock on a bounded innovation support: "
            "support violation possible at impact",
            SupportWarning,
            stacklevel=3,
        )


def _columns(a: np.ndarray, rows: np.ndarray, width: int) -> np.ndarray:
    """(width, d, B) array whose entry [s, :, b] is column rows[b] + s of the
    (d, n) array ``a``: a sliding-window view when the rows are consecutive,
    else a gather. Each [s] is a (d, B) block with B contiguous."""
    if rows[-1] - rows[0] == rows.size - 1:
        start = int(rows[0])
        windows = np.lib.stride_tricks.sliding_window_view(a, rows.size, axis=1)
        return windows[:, start : start + width].transpose(1, 0, 2)
    return np.take(a, rows + np.arange(width)[:, None], axis=1).transpose(1, 0, 2)


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
    stream keyed by ``derive_seed(seed, k)``, step-major: the stream fills a
    C-contiguous (burn_in + H + 1, d, B) array, each step holding the B draws
    of each component in turn. The draws are clipped to the innovation
    bound and component j is scaled by sigma_j. The first ``burn_in`` steps
    carry each replication from a zero state to its history, the last H + 1
    are its future, and the shock falls on component 0 of the future's first
    step. A chunk draws this array ``DRAW_STEPS`` steps at a time into one
    block, which each process allocates on first use, so memory does not
    grow with ``burn_in`` and the result does not depend on the block size.
    The chunks run in up to ``threads`` processes, as ``run_study``'s
    replications do. Each chunk iterates its (T, d, B) paths component-major
    and sums the differences and their squares pairwise over the contiguous
    batch axis (error O(log B u) rather than O(B u)). Chunk sums merge in
    chunk order, so the result is independent of the process count.
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
    compat = None
    if shock.relaxation.kind != "constant_one":
        compat = check_compatibility(
            shock.relaxation, shock.delta, spec.innovation.support(0)
        )

    @functools.cache
    def block() -> np.ndarray:
        # one per process: the first chunk allocates it, so after the fork
        return np.empty(max(DRAW_STEPS, h + 1) * d * min(chunk, replications))

    def run_chunk(start: int):
        size = min(chunk, replications - start)
        gen = philox(derive_seed(seed, start // chunk))

        def draw(steps: int) -> np.ndarray:
            # the chunk's next steps as a (steps, d, size) block
            eps = block()[: steps * d * size].reshape(steps, d, size)
            draw_clipped(gen, eps.shape, spec.innovation.bound, eps)
            scale_innovations(eps.transpose(2, 0, 1), spec.innovation.sigma)
            return eps

        states = np.zeros((max(spec.p, 1), d, size))
        for done in range(0, burn_in, DRAW_STEPS):
            states, _ = _forward(spec, states, draw(min(DRAW_STEPS, burn_in - done)), keep_path=False)
        eps = draw(h + 1)
        w = shock.delta * np.asarray(relax_eval(shock.relaxation, eps[0, 0]))
        if compat is not None and compat.compatible:
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
        base, clamp_b = _forward(spec, states, eps)
        shocked, clamp_s = _forward(spec, states, eps, impact=w)
        diff = np.subtract(shocked, base, out=shocked)
        return diff.sum(axis=2), np.square(diff, out=base).sum(axis=2), clamp_b + clamp_s

    starts = list(range(0, replications, chunk))
    parts = map_in_processes(run_chunk, starts, threads if can_fork() else 1)
    total = np.zeros((h + 1, d))
    total_sq = np.zeros((h + 1, d))
    clamped = 0
    for s, sq, cl in parts:
        total += s
        total_sq += sq
        clamped += cl
    mean = total / replications
    var = np.maximum(total_sq / replications - mean**2, 0.0)
    mc_se = np.sqrt(var / replications)
    return IrfResult(
        values=mean,
        variables=variable_names(spec.d_y),
        method="population",
        delta=shock.delta,
        relaxation=shock.relaxation.describe(),
        n_used=replications,
        seed=seed,
        clamped=clamped,
        mc_se=mc_se,
    )


def estimated_irf(fit, data, shock: ShockSpec, chunk: int = 4096) -> IrfResult:
    """Plug-in sample IRF: the mean over impact times t of the shocked path
    minus the baseline path, both continuing the observed history at t.

    Every impact time with a full H-step residual future contributes (the
    common-t convention). A first-stage fit reproduces its sample from its
    residuals, so its baseline is the observed window z[t+p .. t+p+H] and only
    the impact times with a nonzero shock delta * rho(eps_1t) are iterated: a
    zero shock iterates nothing and gives an exactly zero response. An
    infeasible fit does not reproduce its sample, so both of its paths are
    iterated from every impact time. The impact times are iterated ``chunk``
    at a time, component-major, each chunk's differences summed pairwise
    over the contiguous batch axis (error O(log B u) rather than O(B u))
    and the chunk sums in chunk order. ``clamped`` counts the clamped
    spline evaluations of the iterated paths. A fit whose one-step
    predictions from the observed histories miss the sample (in every
    column, or in X alone for an infeasible fit) raises ``ValueError``.
    """
    if chunk < 1:
        raise ValueError("chunk must be at least 1")
    x, y, _ = _as_xy(data)
    if fit.first_stage is None or fit.residuals2 is None:
        raise ValueError("estimated_irf needs a fitted model with residuals")
    n = x.size
    if fit.n_obs != n:
        raise ValueError("fit was not produced from this sample (length mismatch)")
    _warn_if_unrelaxed(fit, shock)
    p, d, h = fit.p, fit.d, shock.horizon
    if h >= n - p:
        raise ValueError("horizon exceeds sample")
    usable = n - p - h
    # the sample and residuals component-major; residual t is that of time t + p
    zt = np.vstack([x, y.T])
    rt = np.vstack([fit.first_stage.residuals, fit.residuals2.T])
    replay = fit.generated == "first_stage"
    # the X step is the first stage for every fit kind; the Y steps reproduce
    # the sample only when stage II used the first-stage residuals
    step, _ = _forward(fit, _columns(zt, np.arange(n - p), p), rt[None])
    cols = slice(None) if replay else slice(0, 1)
    miss = float(np.max(np.abs(step[0, cols] - zt[cols, p:])))
    if not miss <= 1e-8 * (1.0 + float(np.max(np.abs(zt)))):
        raise ValueError(
            f"fit was not produced from this sample: its residuals "
            f"miss the observations by {miss:.3g}"
        )
    w = shock.delta * np.asarray(relax_eval(shock.relaxation, rt[0, :usable]))
    rows = np.flatnonzero(w) if replay else np.arange(usable)
    total = np.zeros((h + 1, d))
    clamped = 0
    for start in range(0, rows.size, chunk):
        # from impact t: the p-state history before it, its residual future
        # and its observed continuation
        live = rows[start : start + chunk]
        state = _columns(zt, live, p)
        eps = _columns(rt, live, h + 1)
        if replay:
            base, clamp_b = _columns(zt, live + p, h + 1), 0
        else:
            base, clamp_b = _forward(fit, state, eps)
        shocked, clamp_s = _forward(fit, state, eps, impact=w[live])
        total += np.subtract(shocked, base, out=shocked).sum(axis=2)
        clamped += clamp_b + clamp_s
    return IrfResult(
        values=total / usable,
        variables=variable_names(fit.d_y),
        method="estimated",
        delta=shock.delta,
        relaxation=shock.relaxation.describe(),
        n_used=usable,
        seed=None,
        clamped=clamped,
    )


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
