"""Block-recursive structural nonlinear autoregressions and path simulation.

The pseudo-reduced form iterated here is

    X_t = mu_1 + A_11(L) X_{t-1} + A_12(L) Y_{t-1} + eps_1t
    Y_t = mu_2 + A_22(L) Y_{t-1} + A_21(L) X_{t-1} + sum_j G_j(X_{t-j})
          + B0_21 eps_1t + eps_2t

with the structural series ordered first and only its shocks identified.
Impact maps G_j are sums of simple terms so linear and nonlinear pieces of
one lag live side by side. In the forward iteration a term of lag j reads
the X of j steps back, so each step evaluates one feature per term kind at
its new X and every lag reuses it: f(x) for a transform, to which each term
applies its own scale, and for a knot vector each point's knot span and
offset, from which each spline term evaluates its own per-span polynomial.

The iteration works component-major: a batch of B states is held as a
contiguous (d, B) block rather than as B rows of d. The lag product is then
A_k @ S, an orientation in which BLAS is four to six times faster than
S @ A_k' for d of 2 or 3 and B in the thousands. The X row, each Y row
and their impact features are contiguous length-B rows instead of strided
columns. Callers still pass and receive (B, T, d) arrays, whose innovations
are copied into one contiguous block ``STAGE_STEPS`` steps at a time.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# bspline_matrix is not called here, but perfbench's tracer wraps it in this module too
from .basis import KnotVector, bspline_matrix, span_offsets  # noqa: F401

__all__ = [
    "NonlinFn",
    "LagPolynomial",
    "InnovationLaw",
    "ModelSpec",
    "SimPath",
    "PathDivergedError",
    "StabilityWarning",
    "derive_seed",
    "philox",
    "draw_clipped",
    "scale_innovations",
    "draw_innovations",
    "simulate",
    "simulate_batch",
    "iterate_paths",
    "final_states",
    "builtin_dgp",
    "linearized",
]

# steps per contiguous (STAGE_STEPS, d, B) innovation block: 0.5 MiB at d=2, B=4096
STAGE_STEPS = 8

NONLIN_KINDS = ("zero", "identity", "max0", "cube", "smooth_phi", "smooth_phi_shift", "spline")


class PathDivergedError(RuntimeError):
    """Raised when a simulated path leaves the finite range; ``step`` is the
    1-based step at which it did, when known."""

    def __init__(self, message: str, step: int | None = None) -> None:
        super().__init__(message)
        self.step = step


class StabilityWarning(RuntimeWarning):
    """The linear part's companion spectral radius is at or above one."""


@dataclass(frozen=True)
class NonlinFn:
    """One additive impact term: scale * kind(x).

    ``smooth_phi`` is (x-1)(0.5 + tanh(x-1)/2); ``smooth_phi_shift`` shifts its
    argument by +1 so the map closely tracks max(0, x). A spline term is
    scale * sum_i coeffs[i] * b_i(x) with its argument clamped to the knot
    domain. It is evaluated from one polynomial per knot span: the term
    folds its scale and coefficients into its knot vector's ``span_power``
    table once, and ``__call__`` and the forward iteration both evaluate
    through that table.
    """

    kind: str
    scale: float = 1.0
    knots: KnotVector | None = None
    coeffs: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in NONLIN_KINDS:
            raise ValueError(f"unknown impact kind {self.kind!r}")
        if self.kind == "spline":
            if self.knots is None or self.coeffs is None:
                raise ValueError("spline terms need knots and coefficients")
            if len(self.coeffs) != self.knots.dim:
                raise ValueError("spline coefficient count must equal the basis dimension")
            object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    def __call__(self, x: np.ndarray | float) -> np.ndarray | float:
        x = np.asarray(x, dtype=float)
        if self.kind == "zero":
            out = np.zeros_like(x)
        elif self.kind == "identity":
            out = x
        elif self.kind == "max0":
            out = np.maximum(0.0, x)
        elif self.kind == "cube":
            out = x**3
        elif self.kind == "smooth_phi":
            out = (x - 1.0) * (0.5 + np.tanh(x - 1.0) / 2.0)
        elif self.kind == "smooth_phi_shift":
            out = x * (0.5 + np.tanh(x) / 2.0)
        else:
            span, offset, _ = span_offsets(self.knots, x)
            # a 0-d input gives a scalar, as the other kinds do
            return self.from_spans(span, offset).reshape(np.shape(x))[()]
        # 1.0 * out == out bit for bit, so a unit scale skips the product,
        # unless that would hand back the caller's own array
        return self.scale * out if self.scale != 1.0 or out is x else out

    @cached_property
    def _span_table(self) -> np.ndarray:
        """(#spans, degree + 1) power coefficients in the offset from each
        span's left knot of this spline term, scale included."""
        kv = self.knots
        live = np.arange(kv.span_power.shape[0])[:, None] + np.arange(kv.degree + 1)
        table = self.scale * np.einsum("sr,srm->sm", np.asarray(self.coeffs)[live], kv.span_power)
        table.flags.writeable = False
        return table

    def from_spans(self, span: np.ndarray, offset: np.ndarray) -> np.ndarray:
        """Spline term value at points given by ``span_offsets``: a gather of
        each point's span polynomial and a Horner pass in its offset."""
        coef = self._span_table.take(span, axis=0)
        # starting from 0 * offset keeps a NaN point NaN at degree 0 too
        value = offset * 0.0
        value += coef[:, -1]
        for m in range(coef.shape[1] - 2, -1, -1):
            value *= offset
            value += coef[:, m]
        return value


ImpactMap = tuple[tuple[tuple[NonlinFn, ...], ...], ...]

# unit-scale transforms: the forward iteration evaluates f(x) once per time
# index through these and scales it per term
_UNIT = {kind: NonlinFn(kind) for kind in NONLIN_KINDS if kind != "spline"}


@dataclass(frozen=True)
class LagPolynomial:
    """Ordered lag matrices A_1..A_p, each d x d."""

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.coeffs, dtype=float)
        if arr.ndim == 2:
            arr = arr[None, :, :]
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise ValueError("lag coefficients must be a (p, d, d) stack of square matrices")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @property
    def p(self) -> int:
        return self.coeffs.shape[0]

    @property
    def d(self) -> int:
        return self.coeffs.shape[1]

    def companion(self) -> np.ndarray:
        p, d = self.p, self.d
        if p == 0:
            return np.zeros((d, d))
        comp = np.zeros((p * d, p * d))
        comp[:d, :] = np.concatenate(list(self.coeffs), axis=1)
        if p > 1:
            comp[d:, :-d] = np.eye((p - 1) * d)
        return comp

    def spectral_radius(self) -> float:
        comp = self.companion()
        if comp.size == 0:
            return 0.0
        return float(np.max(np.abs(np.linalg.eigvals(comp))))


@dataclass(frozen=True)
class InnovationLaw:
    """Independent clipped Gaussians: sigma_i * clip(N(0,1), -bound, bound)."""

    sigma: tuple[float, ...]
    bound: float = 3.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma", tuple(float(s) for s in self.sigma))
        if any(s < 0 for s in self.sigma):
            raise ValueError("sigma must be non-negative")
        if self.bound <= 0:
            raise ValueError("clip bound must be positive")

    @property
    def d(self) -> int:
        return len(self.sigma)

    def support(self, component: int = 0) -> tuple[float, float]:
        half = self.bound * self.sigma[component]
        return (-half, half)


def _normalize_impact(impact, d_y: int, p: int) -> ImpactMap:
    rows: list[tuple[tuple[NonlinFn, ...], ...]] = []
    # None means no terms at any lag
    impact = tuple(impact) if impact is not None else (((),) * (p + 1),) * d_y
    if len(impact) != d_y:
        raise ValueError(f"impact map must have one row per Y equation ({d_y})")
    for row in impact:
        row = tuple(row)
        if len(row) != p + 1:
            raise ValueError(f"impact rows must cover lags 0..{p}")
        rows.append(tuple(tuple(terms) if isinstance(terms, (tuple, list)) else (terms,) for terms in row))
    for row in rows:
        for terms in row:
            for term in terms:
                if not isinstance(term, NonlinFn):
                    raise TypeError("impact terms must be NonlinFn values")
    return tuple(rows)


@dataclass(frozen=True)
class ModelSpec:
    """Complete generative description of the block-recursive model."""

    d_y: int
    p: int
    mu: np.ndarray
    lags: LagPolynomial
    impact: ImpactMap
    b0_21: np.ndarray
    innovation: InnovationLaw

    def __post_init__(self) -> None:
        if self.d_y < 0 or self.p < 0:
            raise ValueError("dimensions must be non-negative")
        d = self.d
        mu = np.asarray(self.mu, dtype=float).reshape(d).copy()
        mu.flags.writeable = False
        object.__setattr__(self, "mu", mu)
        if self.lags.p != self.p or (self.p > 0 and self.lags.d != d):
            raise ValueError(f"lag polynomial must be ({self.p}, {d}, {d})")
        object.__setattr__(self, "impact", _normalize_impact(self.impact, self.d_y, self.p))
        b = np.asarray(self.b0_21, dtype=float).reshape(self.d_y).copy()
        b.flags.writeable = False
        object.__setattr__(self, "b0_21", b)
        if self.innovation.d != d:
            raise ValueError(f"innovation law must cover all {d} components")
        sr = self.lags.spectral_radius()
        if sr >= 1.0:
            warnings.warn(
                f"companion spectral radius {sr:.3f} >= 1: the linear part is unstable "
                "(neither necessary nor sufficient for the nonlinear process)",
                StabilityWarning,
                stacklevel=2,
            )

    @property
    def d(self) -> int:
        return 1 + self.d_y

    def impact_terms(self, equation: int, lag: int) -> tuple[NonlinFn, ...]:
        return self.impact[equation][lag]


@dataclass(frozen=True)
class SimPath:
    """Simulated sample with the innovations that generated it."""

    x: np.ndarray
    y: np.ndarray
    eps: np.ndarray
    seed: int | None
    burn_in: int

    @property
    def n(self) -> int:
        return self.x.size

    @property
    def d_y(self) -> int:
        return self.y.shape[1]

    @property
    def z(self) -> np.ndarray:
        return np.column_stack([self.x, self.y])


def derive_seed(master: int, *tags: int) -> int:
    """Stable per-task seed from the master seed and integer tags."""
    seq = np.random.SeedSequence(entropy=(int(master),) + tuple(int(t) for t in tags))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def philox(key: int) -> np.random.Generator:
    """Counter-based generator; distinct keys give independent streams."""
    return np.random.Generator(np.random.Philox(key=np.uint64(key)))


def draw_clipped(
    gen: np.random.Generator, shape: tuple[int, ...], bound: float, out: np.ndarray | None = None
) -> np.ndarray:
    """Unit-scale clip(N(0,1), -bound, bound) draws; callers scale by sigma.
    A C-contiguous ``out`` of the given shape receives the same draws."""
    draws = gen.standard_normal(shape, out=out)
    return np.clip(draws, -bound, bound, out=draws)


def scale_innovations(eps: np.ndarray, sigma) -> np.ndarray:
    """Multiply component k of the (..., d) draws by ``sigma[k]`` in place.

    One strided multiply per component gives the same bits as broadcasting
    the length-d ``sigma``, whose short inner loop is about five times
    slower on a large buffer.
    """
    for k, s in enumerate(sigma):
        eps[..., k] *= s
    return eps


def draw_innovations(spec: ModelSpec, n: int, seed: int) -> np.ndarray:
    """(n, d) matrix of independent clipped-Gaussian innovations.

    The stream is counter-based (Philox) and laid out per (variable, time),
    so disjoint seeds give disjoint streams regardless of scheduling.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    clipped = draw_clipped(philox(seed), (spec.d, n), spec.innovation.bound)
    clipped *= np.asarray(spec.innovation.sigma)[:, None]
    return clipped.T


def iterate_paths(
    spec: ModelSpec, state: np.ndarray, eps_path: np.ndarray
) -> tuple[np.ndarray, int]:
    """Iterate the pseudo-reduced recursion over a batch of paths.

    ``state`` is (B, p, d) with the most recent lag last; ``eps_path`` is
    (B, T, d), row s supplying (eps_1, xi_2) for step s. Returns a fresh
    C-contiguous (B, T, d) continuation, which shares no memory with the
    inputs, and the count of clamped spline-impact evaluations. Neither
    input is written. A caller that needs only the state the iteration
    ends in, such as a burn-in, calls ``final_states`` instead.

    The iteration works component-major: each state is a contiguous (d, B)
    block, so the lag product is A_k @ S, the orientation in which BLAS is
    fast for small d, and the state rows (X, each Y) and their impact
    features are contiguous length-B rows. The path is built as (T, d, B)
    and copied into the (B, T, d) result once. The innovations are copied
    into one contiguous block ``STAGE_STEPS`` steps at a time.
    """
    out, clamped, _ = _iterate_inner(spec, *_lag_state(spec, state, eps_path), keep_path=True)
    return out.transpose(2, 0, 1).copy(), clamped


def final_states(spec: ModelSpec, state: np.ndarray, eps_path: np.ndarray) -> np.ndarray:
    """The fresh (B, max(p, 1), d) companion state after ``iterate_paths``.

    Same arguments, validation and arithmetic as ``iterate_paths``, but no
    path is stored: the result is byte-equal to the last max(p, 1) rows of
    the input state followed by the path, and memory stays O(B p d) for any
    T. Burn-ins use it, since only the state they hand on is read.
    """
    _, _, recent = _iterate_inner(spec, *_lag_state(spec, state, eps_path), keep_path=False)
    return np.stack(recent).transpose(2, 0, 1).copy()


def _lag_state(spec, state, eps_path):
    """The last max(p, 1) states as contiguous (d, B) copies, oldest first
    (none for an empty p = 0 state), and the validated innovations as a
    (T, d, B) view."""
    state = np.asarray(state, dtype=float)
    eps_path = np.asarray(eps_path, dtype=float)
    p, d = spec.p, spec.d
    if eps_path.ndim not in (2, 3) or eps_path.shape[-1] != d:
        raise ValueError(f"eps_path must be (B, T, {d}) or (T, {d}), got shape {eps_path.shape}")
    if state.ndim == 2:
        state = state[None, :, :]
    if eps_path.ndim == 2:
        eps_path = eps_path[None, :, :]
    n_batch = eps_path.shape[0]
    if state.shape != (n_batch, max(p, 1), d) and state.shape != (n_batch, p, d):
        raise ValueError(f"state must be ({n_batch}, {p}, {d})")
    return list(state[:, -max(p, 1) :].transpose(1, 2, 0).copy()), eps_path.transpose(1, 2, 0)


# divergence is detected via isfinite; the overflow itself is expected there
@np.errstate(over="ignore", invalid="ignore")
def _iterate_inner(spec, recent, eps_path, keep_path):
    p, d_y = spec.p, spec.d_y
    steps, d, n_batch = eps_path.shape
    a = spec.lags.coeffs
    mu = spec.mu[:, None]
    out = np.empty((steps, d, n_batch)) if keep_path else None
    stage = np.empty((min(STAGE_STEPS, steps), d, n_batch))
    # one feature per (term kind, time index): the unscaled f(x) for a
    # transform, the knot spans, offsets and clamp count for a spline. The
    # lag-j term at step s reuses the feature of the X of step s - j. Keys hold
    # knot vectors by value, as each lag of a loaded fit has its own copy.
    features: dict[tuple[str | KnotVector, int], object] = {}
    clamped = 0
    for s in range(steps):
        pos = p + s
        if s % STAGE_STEPS == 0:
            stage[: min(STAGE_STEPS, steps - s)] = eps_path[s : s + STAGE_STEPS]
        eps = stage[s % STAGE_STEPS]
        new = out[s] if keep_path else np.empty((d, n_batch))
        # mu + A_1 S_1 + A_2 S_2 + ..., summed left to right (adding mu to
        # A_1 S_1 gives the same bits as adding A_1 S_1 to mu)
        if p:
            np.matmul(a[0], recent[p - 1], out=new)
            new += mu
        else:
            new[...] = mu
        for k in range(2, p + 1):
            new += a[k - 1] @ recent[p - k]
        new[0] += eps[0]
        x_new = new[0]
        for i in range(d_y):
            acc = new[1 + i]
            for j in range(p + 1):
                x_lag = x_new if j == 0 else recent[p - j][0]
                for term in spec.impact[i][j]:
                    spline = term.kind == "spline"
                    key = (term.knots if spline else term.kind, pos - j)
                    feature = features.get(key)
                    if feature is None:
                        feature = span_offsets(term.knots, x_lag) if spline else _UNIT[term.kind](x_lag)
                        features[key] = feature
                    if spline:
                        # clamped counts every term evaluation, shared spans or not
                        clamped += feature[2]
                        acc += term.from_spans(feature[0], feature[1])
                    else:
                        acc += term.scale * feature
            acc += spec.b0_21[i] * eps[0] + eps[1 + i]
        if not np.isfinite(new).all():
            raise PathDivergedError(f"path diverged at step {s + 1}", step=s + 1)
        # the last max(p, 1) states; the lag-k product reads recent[p - k]
        recent = recent[1:] + [new]
        if features:
            # the next step reads time indices pos + 1 - p .. pos
            features = {key: f for key, f in features.items() if key[1] > pos - p}
    return out, clamped, recent


def simulate(
    spec: ModelSpec,
    n: int,
    seed: int | None = None,
    burn_in: int = 500,
    eps: np.ndarray | None = None,
) -> SimPath:
    """Simulate n observations after ``burn_in`` steps from a zero state.

    ``eps`` overrides the innovation draws; it must cover burn_in + n steps.
    The map (spec, n, seed, burn_in) -> SimPath is deterministic and is the
    one-row case of ``simulate_batch``.
    """
    if eps is None:
        if seed is None:
            raise ValueError("either a seed or explicit innovations are required")
        return simulate_batch(spec, n, (seed,), burn_in)[0]
    eps = np.asarray(eps, dtype=float)
    if eps.shape != (burn_in + n, spec.d):
        raise ValueError(f"innovation override must have shape ({burn_in + n}, {spec.d})")
    return _paths_from(spec, n, eps[None], (seed,), burn_in)[0]


def simulate_batch(
    spec: ModelSpec, n: int, seeds, burn_in: int = 500
) -> list[SimPath]:
    """``simulate`` for many seeds in one batched burn-in and one batched
    ``iterate_paths`` call over the n kept steps.

    Row r draws its innovations from ``seeds[r]``'s own stream, exactly as
    ``simulate(spec, n, seeds[r], burn_in)`` does. The rows are iterated
    together, so a non-diagonal lag matrix can round differently from the
    one-row call (a few 1e-15); a diagonal one gives identical paths. A
    diverging row raises ``PathDivergedError`` for the whole batch.
    """
    seeds = tuple(seeds)
    eps = np.empty((len(seeds), burn_in + n, spec.d))
    for row, seed in zip(eps, seeds):
        row[...] = draw_innovations(spec, burn_in + n, seed)
    return _paths_from(spec, n, eps, seeds, burn_in)


def _paths_from(spec: ModelSpec, n: int, eps: np.ndarray, seeds, burn_in: int) -> list[SimPath]:
    """Iterate (R, burn_in + n, d) innovations from a zero state into R paths.

    The burn-in keeps only the state it hands on. A divergence reports its
    step counted from the first burn-in step.
    """
    if n < max(spec.p + 1, 1):
        raise ValueError("n must exceed the lag order")
    state = np.zeros((eps.shape[0], max(spec.p, 1), spec.d))
    if burn_in > 0:
        state = final_states(spec, state, eps[:, :burn_in])
    try:
        paths, _ = iterate_paths(spec, state, eps[:, burn_in:])
    except PathDivergedError as exc:
        step = burn_in + exc.step
        raise PathDivergedError(f"path diverged at step {step}", step=step) from None
    return [
        SimPath(x=z[:, 0], y=z[:, 1:], eps=e[burn_in:], seed=seed, burn_in=burn_in)
        for z, e, seed in zip(paths, eps, seeds)
    ]


def linearized(spec: ModelSpec) -> ModelSpec:
    """Copy of the model with every non-identity impact term removed."""
    impact = tuple(
        tuple(tuple(t for t in terms if t.kind == "identity") for terms in row) for row in spec.impact
    )
    return ModelSpec(
        d_y=spec.d_y, p=spec.p, mu=spec.mu, lags=spec.lags, impact=impact,
        b0_21=spec.b0_21, innovation=spec.innovation,
    )


def _benchmark_bivariate(x_row: tuple[float, float]) -> ModelSpec:
    # shared Y equation of the three bivariate benchmarks:
    # Y_t = 0.5 Y_{t-1} + 0.5 X_t + 0.3 X_{t-1} - 0.4 max0(X_t) + 0.3 max0(X_{t-1}) + eps_2t
    a1 = np.array([[x_row[0], x_row[1]], [0.3, 0.5]])
    impact = (
        (
            (NonlinFn("identity", 0.5), NonlinFn("max0", -0.4)),
            (NonlinFn("max0", 0.3),),
        ),
    )
    return ModelSpec(
        d_y=1, p=1, mu=np.zeros(2), lags=LagPolynomial(a1[None]), impact=impact,
        b0_21=np.zeros(1), innovation=InnovationLaw(sigma=(1.0, 1.0), bound=3.0),
    )


def structural_to_pseudo_reduced(
    b0: np.ndarray, b1: np.ndarray, c0: np.ndarray, c1: np.ndarray, kind: str = "max0",
    innovation: InnovationLaw | None = None,
) -> ModelSpec:
    """Convert B0 Z_t = B1 Z_{t-1} + C0 f(X_t) + C1 f(X_{t-1}) + eps_t.

    Left-multiplies by B0^-1; the X row must stay linear (first components of
    B0^-1 C0 and C1 vanish) and B0_21 is the lower-left block of B0^-1.
    """
    b0 = np.asarray(b0, dtype=float)
    d = b0.shape[0]
    b0_inv = np.linalg.inv(b0)
    a1 = b0_inv @ np.asarray(b1, dtype=float)
    g0 = b0_inv @ np.asarray(c0, dtype=float).reshape(d)
    g1 = b0_inv @ np.asarray(c1, dtype=float).reshape(d)
    if abs(g0[0]) > 1e-12 or abs(g1[0]) > 1e-12:
        raise ValueError("structural form must keep the X equation linear")
    impact = tuple(
        ((NonlinFn(kind, float(g0[1 + i])),), (NonlinFn(kind, float(g1[1 + i])),))
        for i in range(d - 1)
    )
    law = innovation if innovation is not None else InnovationLaw(sigma=(1.0,) * d, bound=3.0)
    return ModelSpec(
        d_y=d - 1, p=1, mu=np.zeros(d), lags=LagPolynomial(a1[None]), impact=impact,
        b0_21=b0_inv[1:, 0], innovation=law,
    )


_B0_TRIVARIATE = np.array([[1.0, 0.0, 0.0], [-0.45, 1.0, -0.3], [-0.05, 0.1, 1.0]])
_C0_TRIVARIATE = np.array([0.0, -0.2, 0.08])
_C1_TRIVARIATE = np.array([0.0, -0.1, 0.2])
_B1_ROWS_23 = np.array([[0.15, 0.17, -0.18], [-0.08, 0.03, 0.6]])


def _trivariate(x_row: tuple[float, float, float]) -> ModelSpec:
    b1 = np.vstack([np.asarray(x_row, dtype=float), _B1_ROWS_23])
    return structural_to_pseudo_reduced(_B0_TRIVARIATE, b1, _C0_TRIVARIATE, _C1_TRIVARIATE)


def _misspecification_dgp(kind: str) -> ModelSpec:
    a1 = np.array([[0.8, 0.0], [0.0, 0.5]])
    impact = (((NonlinFn(kind, 0.9),), (NonlinFn(kind, 0.5),)),)
    return ModelSpec(
        d_y=1, p=1, mu=np.zeros(2), lags=LagPolynomial(a1[None]), impact=impact,
        b0_21=np.zeros(1), innovation=InnovationLaw(sigma=(1.0, 1.0), bound=5.0),
    )


def builtin_dgp(dgp_id: int, phi_shift: bool = False) -> ModelSpec:
    """The seven benchmark generating processes.

    1-3 are the bivariate designs with increasingly endogenous X, 4-6 the
    trivariate partially identified designs stated in structural form and
    converted here, and 7 the smooth-map design with clip bound 5.
    ``phi_shift`` swaps DGP 7's map for its +1-shifted variant.
    """
    if dgp_id == 1:
        return _benchmark_bivariate((0.0, 0.0))
    if dgp_id == 2:
        return _benchmark_bivariate((0.5, 0.0))
    if dgp_id == 3:
        return _benchmark_bivariate((0.5, 0.2))
    if dgp_id == 4:
        return _trivariate((0.0, 0.0, 0.0))
    if dgp_id == 5:
        return _trivariate((-0.13, 0.0, 0.0))
    if dgp_id == 6:
        return _trivariate((-0.13, 0.05, -0.01))
    if dgp_id == 7:
        return _misspecification_dgp("smooth_phi_shift" if phi_shift else "smooth_phi")
    raise ValueError(f"dgp id must be in 1..7, got {dgp_id}")
