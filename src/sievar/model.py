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

The iteration works component-major: a batch of B states is one contiguous
(d, B) block, so the lag product is A_k @ S (four to six times faster in
BLAS than S @ A_k' for d of 2 or 3 and B in the thousands), each row is
contiguous, and a path summed over the batch is summed pairwise. The IRFs
and the simulations call the loop ``_forward`` directly; ``iterate_paths``
and ``final_states`` wrap it for (B, T, d) arrays. It also runs several
models of one impact layout side by side, each on its own columns, from
one step plan of them all (``_StepPlan``), and marks the columns that
diverge.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

import numpy as np

# tracer-only imports (perfbench wraps them here): bspline_matrix
from .basis import KnotVector, SpanLookup, bspline_matrix, span_offsets  # noqa: F401

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


class Divergence(NamedTuple):
    """Which columns of a ``_forward`` call (or fits of a stacked one) left
    the finite range, as a bool array, and the 1-based step of the first."""

    columns: np.ndarray
    step: int


def _finite(*result, after: int = 0):
    """``result`` but its last item, a ``Divergence`` or None; for a
    divergence, raise ``PathDivergedError`` at its step counted after
    ``after`` steps. The rule of every caller that is all or nothing."""
    *out, diverged = result
    if diverged is not None:
        step = after + diverged.step
        raise PathDivergedError(f"path diverged at step {step}", step=step)
    return out


def _union(first: Divergence | None, then: Divergence | None) -> Divergence | None:
    """The columns that diverged in ``first`` or in ``then``, a later call
    over the same columns, at the earliest step."""
    return Divergence(first.columns | then.columns, first.step) if first and then else first or then


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
        if self.kind == "spline":
            span, offset, _ = span_offsets(self.knots, x)
            # a 0-d input gives a scalar, as the other kinds do
            return self.from_spans(span, offset).reshape(np.shape(x))[()]
        out = np.empty_like(x)
        # only the smooth_phi kinds read a scratch row beside ``out``
        scratch = np.empty_like(x) if self.kind.startswith("smooth_phi") else out
        out = _TRANSFORMS[self.kind](x, out, scratch)
        # 1.0 * out == out bit for bit, so a unit scale skips the product,
        # unless that would hand back the caller's own array
        return (self.scale * out if self.scale != 1.0 or out is x else out)[()]

    @cached_property
    def _span_table(self) -> np.ndarray:
        """(#spans, degree + 1) power coefficients in the offset from each
        span's left knot of this spline term, scale included."""
        table = _span_tables(np.asarray(self.coeffs), self.knots.span_power, self.scale)
        table.flags.writeable = False
        return table

    def from_spans(self, span: np.ndarray, offset: np.ndarray) -> np.ndarray:
        """Spline term value at points given by ``span_offsets``."""
        return _horner(self._span_table, span, offset)


def _span_tables(coeffs: np.ndarray, power: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """The (..., #spans, degree + 1) power coefficients of splines with
    (..., dim) basis coefficients on knots with (..., #spans, degree + 1,
    degree + 1) ``span_power`` tables, ``scale`` folded in. Every step is
    elementwise in the leading axes, so a spline's table has the same bits
    alone (``NonlinFn._span_table``) or in a group's stack."""
    spans, width = power.shape[-3], power.shape[-1]
    live = coeffs[..., np.arange(spans)[:, None] + np.arange(width)]
    table = live[..., :, :1] * power[..., 0, :]
    for r in range(1, width):
        table += live[..., :, r : r + 1] * power[..., r, :]
    return scale * table


def _horner(table: np.ndarray, span: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """Rows ``span`` of a (#spans, degree + 1) power-coefficient table
    evaluated at ``offset``: a gather of each point's span polynomial and a
    Horner pass in its offset."""
    coef = table.take(span, axis=0)
    if coef.shape[1] == 1:
        # 0 * offset keeps a NaN point NaN
        value = offset * 0.0
        value += coef[:, 0]
        return value
    # starting from c_deg * offset saves the pass over 0 * offset + c_deg; the
    # values are equal but for the sign of an exact zero
    value = coef[:, -1] * offset
    for m in range(coef.shape[1] - 2, 0, -1):
        value += coef[:, m]
        value *= offset
    value += coef[:, 0]
    return value


ImpactMap = tuple[tuple[tuple[NonlinFn, ...], ...], ...]


def _zero(x, out, scratch):
    out[...] = 0.0
    return out


def _identity(x, out, scratch):
    return x


def _max0(x, out, scratch):
    return np.maximum(0.0, x, out=out)


def _cube(x, out, scratch):
    return np.power(x, 3, out=out)


def _phi(u, out, scratch):
    """u (0.5 + tanh(u) / 2) into ``out``, which may be ``u`` itself; tanh(u)
    * 0.5 gives the bits of tanh(u) / 2 and is the faster of the two."""
    np.tanh(u, out=scratch)
    scratch *= 0.5
    scratch += 0.5
    return np.multiply(u, scratch, out=out)


def _smooth_phi(x, out, scratch):
    return _phi(np.subtract(x, 1.0, out=out), out, scratch)


def _smooth_phi_shift(x, out, scratch):
    return _phi(x, out, scratch)


# unit-scale f(x) of each transform kind, written to ``out`` (identity hands
# back x itself); the smooth_phi kinds also use a scratch row of x's shape. NonlinFn.__call__ and the
# forward iteration both evaluate through these, which the iteration does
# once per time index, scaling the result per term.
_TRANSFORMS = {
    "zero": _zero,
    "identity": _identity,
    "max0": _max0,
    "cube": _cube,
    "smooth_phi": _smooth_phi,
    "smooth_phi_shift": _smooth_phi_shift,
}


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
        comp[:d, :] = self.coeffs.swapaxes(0, 1).reshape(d, p * d)
        comp[d:, :-d] = np.eye((p - 1) * d)
        return comp

    def spectral_radius(self) -> float:
        if self.p == 0 or self.d == 0:
            return 0.0
        return float(np.max(np.abs(np.linalg.eigvals(self.companion()))))


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

    @cached_property
    def _step_plan(self) -> "_StepPlan":
        """The model as the forward iteration reads it: a plan of one model
        whose feature groups are one per transform kind or knot vector (by
        value, as each lag of a loaded fit holds its own copy)."""
        entries = []
        for i, row in enumerate(self.impact):
            for j, lag_terms in enumerate(row):
                for term in lag_terms:
                    if term.kind != "spline":
                        entries.append((i, j, term.kind, term.kind, np.array([term.scale]), None))
                        continue
                    kv = term.knots
                    lookup = _plan_lookup(kv.lookup.interior, np.array([kv.lo]), np.array([kv.hi]), kv.lookup.left)
                    entries.append((i, j, kv, lookup, np.array([term.scale]), term._span_table[None]))
        return _plan(self.p, self.d_y, self.lags.coeffs[None], self.mu[None], self.b0_21[None], entries)


class _StepPlan(NamedTuple):
    """The parameters of M models that share one impact layout, stacked
    model-major for ``_forward`` (``_plan``): of one model for
    ``ModelSpec._step_plan``, of a group's fits for ``estimator.GroupFit``.
    ``groups`` holds per feature group its key, a transform kind or the
    ``SpanLookup`` of its knots (``_plan_lookup``), and the sorted lags that
    read it. ``terms`` holds the impact terms of each Y equation in
    summation order as (Y row, lag, group, (M,) scales, and for a spline
    term its (M, #spans, degree + 1) span tables, scale folded in)."""

    p: int
    d_y: int
    a: np.ndarray  # (M, p, d, d) lag matrices
    mu: np.ndarray  # (M, d)
    b0_21: np.ndarray  # (M, d_y)
    groups: tuple
    terms: tuple

    def take(self, rows) -> "_StepPlan":
        """The plan of models ``rows`` (which may repeat), in that order;
        the plan itself when ``rows`` lists each of its models in order."""
        rows, count = np.asarray(rows, dtype=np.intp), len(self.mu)
        if rows.size == count and (rows == np.arange(count)).all():
            return self
        groups = tuple((key if isinstance(key, str) else _plan_lookup(
            key.interior, key.lo[rows], key.hi[rows], key.left.reshape(count, -1)[rows].reshape(-1)
        ), lags) for key, lags in self.groups)
        terms = tuple(
            (i, j, g, scale[rows], None if table is None else table[rows]) for i, j, g, scale, table in self.terms
        )
        return _StepPlan(self.p, self.d_y, self.a[rows], self.mu[rows], self.b0_21[rows], groups, terms)


def _plan_lookup(interior: np.ndarray, lo: np.ndarray, hi: np.ndarray, left: np.ndarray) -> SpanLookup:
    """A plan's lookup of M models' points: the ``interior`` knots, the
    (M,) bounds, the left knots model-major, and each model's first row of
    them."""
    return SpanLookup(interior, lo, hi, left, np.arange(lo.size) * (left.size // lo.size))


def _plan(p: int, d_y: int, a: np.ndarray, mu: np.ndarray, b0_21: np.ndarray, entries) -> _StepPlan:
    """The one map from M models' (M, p, d, d) lag matrices, (M, d) ``mu``,
    (M, d_y) ``b0_21`` and impact terms to their step plan. ``entries`` are
    the terms in each equation's summation order as (equation, lag, key,
    feature, scales, span tables); the terms of one key share one feature
    group, in the order the keys first appear."""
    groups: dict = {}  # key: its feature and the lags that read it
    terms = []
    for i, j, key, feature, scale, table in entries:
        groups.setdefault(key, (feature, set()))[1].add(j)
        terms.append((1 + i, j, list(groups).index(key), scale, table))
    features = tuple((feature, tuple(sorted(lags))) for feature, lags in groups.values())
    return _StepPlan(p, d_y, a, mu, b0_21, features, tuple(terms))


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


def _innovations(
    spec: ModelSpec, gen: np.random.Generator, shape: tuple[int, ...], axis: int = -1,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """The generator's next standard normals in the C order of ``shape``
    (into a C-contiguous ``out`` of that shape, if given), clipped to the
    innovation bound, with component j along ``axis`` scaled by sigma_j in
    place. The one innovation draw: every stream reads its draws here.

    Each component is one strided multiply, the bits of broadcasting sigma
    but about five times faster on a large buffer; a sigma of exactly 1.0 is
    skipped, since x * 1.0 == x bit for bit."""
    draws = gen.standard_normal(shape, out=out)
    np.clip(draws, -spec.innovation.bound, spec.innovation.bound, out=draws)
    components = np.moveaxis(draws, axis, 0)
    for j, s in enumerate(spec.innovation.sigma):
        if s != 1.0:
            components[j] *= s
    return draws


def draw_innovations(spec: ModelSpec, n: int, seed: int) -> np.ndarray:
    """(n, d) matrix of independent clipped-Gaussian innovations.

    The stream is counter-based (Philox) and laid out per (variable, time),
    so disjoint seeds give disjoint streams regardless of scheduling.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return _innovations(spec, philox(seed), (spec.d, n), axis=0).T


def iterate_paths(
    spec: ModelSpec, state: np.ndarray, eps_path: np.ndarray
) -> tuple[np.ndarray, int]:
    """Iterate the pseudo-reduced recursion over a batch of paths.

    ``state`` is (B, p, d) with the most recent lag last; ``eps_path`` is
    (B, T, d), row s supplying (eps_1, xi_2) for step s. Returns a fresh
    C-contiguous (B, T, d) continuation, which shares no memory with the
    inputs, and the count of clamped spline-impact evaluations. Neither
    input is written. A diverging row raises ``PathDivergedError``.

    A thin wrapper of the component-major loop ``_forward``, which reads the
    inputs through (d, B) and (T, d, B) views; its (T, d, B) path is copied
    into the (B, T, d) result once. A caller that reduces the paths over the
    batch calls ``_forward`` itself, whose batch axis is the contiguous one.
    """
    path, clamped = _finite(*_forward(spec, *_component_major(spec, state, eps_path)))
    return path.transpose(2, 0, 1).copy(), clamped


def final_states(spec: ModelSpec, state: np.ndarray, eps_path: np.ndarray) -> np.ndarray:
    """The fresh (B, max(p, 1), d) companion state after ``iterate_paths``.

    Same arguments, validation, arithmetic and divergence rule as
    ``iterate_paths``, but no path is stored: the result is byte-equal to
    the last max(p, 1) rows of the input state followed by the path, and
    memory stays O(B p d) for any T, as a burn-in needs.
    """
    last, _ = _finite(*_forward(spec, *_component_major(spec, state, eps_path), keep_path=False))
    return last.transpose(2, 0, 1).copy()


def _component_major(spec, state, eps_path):
    """The validated state and innovations of a public call as the
    (max(p, 1) or p, d, B) and (T, d, B) views that ``_forward`` reads."""
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
    return state[:, -max(p, 1) :].transpose(1, 2, 0), eps_path.transpose(1, 2, 0)


class _FeatureGroup(NamedTuple):
    """One feature group of a ``_forward`` call and its ring of features."""

    lowest_lag: int  # the lag whose step evaluates the group's new feature
    key: str | SpanLookup  # transform kind, or the knots of spline terms
    slots: np.ndarray  # (p + 1, B) rows a transform writes its features to
    features: list  # feature at the X of time index t, at t % (p + 1)


class _StepTerm(NamedTuple):
    """One impact term as a ``_forward`` step adds it."""

    row: int  # its Y row in a state
    lag: int
    features: list  # its group's ring
    scale: float | np.ndarray  # a transform's scale, per column for several models
    table: np.ndarray | None  # a spline's (M * #spans, degree + 1) span tables


# a diverged column runs on to the end, so overflow and NaN are expected
@np.errstate(over="ignore", invalid="ignore")
def _forward(model, states, eps, impact=None, keep_path=True):
    """The forward iteration, component-major.

    ``model`` is a ``ModelSpec`` or a ``_StepPlan`` of one model, ``states``
    a (k, d, B) array or view of the states before the first step, oldest
    first, with k = max(p, 1) or p, and ``eps`` a (T, d, B) one of the
    innovations, step s supplying (eps_1, xi_2) for step s. A plan of M
    models of one impact layout takes lists of M such arrays,
    each of its own width B_m, and runs them side by side as one block of
    B = sum B_m columns. A length-B ``impact`` row is added to component 0
    of step 0. No input is written. Returns the fresh (T, d, B) path, or
    without ``keep_path`` the (max(p, 1), d, B) end states, oldest first;
    the count of clamped spline-impact evaluations; and the ``Divergence``
    of the columns that left the finite range, or None. The batch axis is
    the contiguous one, so numpy sums a path over it pairwise.

    Each column's arithmetic is its own: every elementwise operation reads
    its model's parameters spread over its columns, and each lag product is
    one gemm per model over its own columns. So a model's columns get the
    same bits whichever models share the call, and a column that diverges
    touches no other. This loop is the one place that decides divergence: a
    step whose dot product with zeros is not 0 marks its non-finite columns
    for good, and the block runs on to its end.

    Each call plans its steps once: rows for the states (without a path a
    ring of max(p, 1) + 1); the innovations, copied ``STAGE_STEPS`` steps at
    a time into one block with each Y row's b0_21 eps_1 + xi_2; and per
    feature group a ring of p + 1 slots holding its feature at the X of the
    last p + 1 time indices, so each X is transformed once however many
    lags read it.
    """
    plan = model if isinstance(model, _StepPlan) else model._step_plan
    if isinstance(eps, np.ndarray):
        states, eps = [states], [eps]
    single = len(plan.mu) == 1
    p, d_y = plan.p, plan.d_y
    widths = [part.shape[2] for part in eps]
    edges = list(accumulate(widths, initial=0))
    cols = [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]
    steps, d, n_batch = eps[0].shape[:2] + (edges[-1],)
    q, ring = max(p, 1), p + 1

    def per_column(values):
        # per-model values, the model axis last, repeated over each model's
        # columns; a single model's values broadcast as they are
        return values if single else np.repeat(values, widths, axis=-1)

    # adding a full (d, B) block is two to three times faster than a (d, 1) broadcast
    mu = np.repeat(plan.mu.T, widths, axis=1)
    b0_21 = per_column(plan.b0_21.T)
    buf = np.empty((q + steps if keep_path else q + 1, d, n_batch))
    rows = len(buf)
    given = len(states[0])
    buf[: q - given] = np.nan  # the missing lag of p = 0, never read
    for c, part in zip(cols, states):
        buf[q - given : q, :, c] = part
    flat = buf.reshape(rows, d * n_batch)
    zeros = np.zeros(d * n_batch)
    stage = np.empty((min(STAGE_STEPS, steps), d, n_batch))
    y_eps = np.empty((len(stage), d_y, n_batch))
    prod = np.empty((d, n_batch))
    term_value = np.empty(n_batch)
    scratch = np.empty(n_batch)
    groups = []
    for key, lags_g in plan.groups:
        if not isinstance(key, str):
            key = key._replace(lo=per_column(key.lo), hi=per_column(key.hi), start=per_column(key.start))
        groups.append(_FeatureGroup(lags_g[0], key, np.empty((ring, n_batch)), [None] * ring))
    terms = [
        _StepTerm(i, j, groups[g].features, scale[0] if single else per_column(scale),
                  None if table is None else table.reshape(-1, table.shape[-1]))
        for i, j, g, scale, table in plan.terms
    ]
    # per model and lag its lag matrix, the columns it reads and writes
    gemms = [[(a_m[lag], c) for a_m, c in zip(plan.a, cols)] for lag in range(p)]

    def evaluate(group: _FeatureGroup, t: int) -> None:
        # the group's feature at the X of buffer row t
        x, key = buf[t % rows, 0], group.key
        if isinstance(key, str):
            group.features[t % ring] = _TRANSFORMS[key](x, group.slots[t % ring], scratch)
        else:
            group.features[t % ring] = span_offsets(key, x)

    # rows of the given states that a lag reads before the step at which
    # its group's lowest lag would reach them
    for group, (_, lags_g) in zip(groups, plan.groups):
        for t in sorted({q + s - j for j in lags_g for s in range(min(j - lags_g[0], steps))}):
            evaluate(group, t)
    clamped, diverged = 0, None
    for s in range(steps):
        k = s % STAGE_STEPS
        if k == 0:
            block = stage[: min(STAGE_STEPS, steps - s)]
            for c, part in zip(cols, eps):
                block[:, :, c] = part[s : s + len(block)]
            if s == 0 and impact is not None:
                block[0, 0] += impact
            np.multiply(block[:, :1], b0_21, out=y_eps[: len(block)])
            y_eps[: len(block)] += block[:, 1:]
        r = q + s
        new = buf[r % rows]
        # mu + A_1 S_1 + A_2 S_2 + ..., summed left to right (adding mu to
        # A_1 S_1 gives the same bits as adding A_1 S_1 to mu)
        if not p:
            new[...] = mu
        for lag in range(1, p + 1):
            out, prev = new if lag == 1 else prod, buf[(r - lag) % rows]
            for a_m, c in gemms[lag - 1]:
                np.matmul(a_m, prev[:, c], out=out[:, c])
            new += mu if lag == 1 else prod
        new[0] += stage[k, 0]
        for group in groups:
            evaluate(group, r - group.lowest_lag)
        for i, j, features, scale, table in terms:
            feature = features[(r - j) % ring]
            if table is None:
                new[i] += np.multiply(feature, scale, out=term_value)
            else:
                # clamped counts every term evaluation, shared spans or not
                clamped += feature[2]
                new[i] += _horner(table, feature[0], feature[1])
        new[1:] += y_eps[k]
        # 0 * x is 0 for finite x and NaN for inf or NaN, so the step is
        # finite exactly when its dot product with zeros is 0
        if not np.dot(flat[r % rows], zeros) == 0.0:
            diverged = _union(diverged, Divergence(~np.isfinite(new).all(axis=0), s + 1))
    if keep_path:
        return buf[q:], clamped, diverged
    return buf.take(np.arange(steps, steps + q) % rows, axis=0), clamped, diverged


def simulate(
    spec: ModelSpec, n: int, seed: int | None = None, burn_in: int = 500, eps: np.ndarray | None = None
) -> SimPath:
    """Simulate n observations after ``burn_in`` steps from a zero state.

    ``eps`` overrides the innovation draws; it must cover burn_in + n steps.
    The map (spec, n, seed, burn_in) -> SimPath is deterministic and is the
    one-row case of ``simulate_batch``.
    """
    if eps is None and seed is None:
        raise ValueError("either a seed or explicit innovations are required")
    if eps is not None:
        eps = np.asarray(eps, dtype=float)[None]
        if eps.shape[1:] != (burn_in + n, spec.d):
            raise ValueError(f"innovation override must have shape ({burn_in + n}, {spec.d})")
    return _finite(*_simulate_rows(spec, n, (seed,), burn_in, eps))[0][0]


def simulate_batch(spec: ModelSpec, n: int, seeds, burn_in: int = 500) -> list[SimPath]:
    """``simulate`` for many seeds in one batched burn-in and one batched
    forward iteration over the n kept steps.

    Row r draws its innovations from ``seeds[r]``'s own stream, exactly as
    ``simulate(spec, n, seeds[r], burn_in)`` does. The rows are iterated
    together, so a non-diagonal lag matrix can round differently from the
    one-row call (a few 1e-15); a diagonal one gives identical paths. A
    diverging row raises ``PathDivergedError`` for the whole batch, its step
    counted from the first burn-in step.
    """
    return _finite(*_simulate_rows(spec, n, seeds, burn_in))[0]


def _simulate_rows(
    spec: ModelSpec, n: int, seeds, burn_in: int, eps: np.ndarray | None = None
) -> tuple[list[SimPath], Divergence | None]:
    """``simulate_batch``'s paths, or those of (R, burn_in + n, d) innovations
    ``eps``, and the ``Divergence`` of the rows, its step counted from the
    first burn-in step. The burn-in keeps only the state it hands on."""
    if n < max(spec.p + 1, 1):
        raise ValueError("n must exceed the lag order")
    seeds = tuple(seeds)
    if eps is None:
        eps = np.empty((len(seeds), burn_in + n, spec.d))
        for row, seed in zip(eps, seeds):
            row[...] = draw_innovations(spec, burn_in + n, seed)
    steps, state = eps.transpose(1, 2, 0), np.zeros((max(spec.p, 1), spec.d, len(seeds)))
    state, _, burnt = _forward(spec, state, steps[:burn_in], keep_path=False)
    path, _, kept = _forward(spec, state, steps[burn_in:])
    paths = [
        SimPath(x=z[:, 0], y=z[:, 1:], eps=e[burn_in:], seed=seed, burn_in=burn_in)
        for z, e, seed in zip(path.transpose(2, 0, 1).copy(), eps, seeds)
    ]
    return paths, _union(burnt, kept and kept._replace(step=burn_in + kept.step))


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
